/**
 * @file
 * soma::Scheduler — the unified entry point for scheduling requests
 * (the Fig. 5 pipeline as a service). One object owns the registries;
 * consumers hand it ScheduleRequests and get ScheduleResults back from
 * Schedule(), which runs the whole pipeline in the calling thread.
 *
 * Concurrency belongs to the caller: Schedule() is thread-safe once the
 * registries are configured, so concurrent traffic calls it from its
 * own threads — or goes through SchedulerService (service/service.h),
 * which adds result caching and in-flight coalescing on top. Each
 * search already spreads its chains over the SearchDriver's threads.
 *
 * Determinism contract: a result depends only on the request (model,
 * hardware, scheduler, profile, seed, objective, chains) — never on how
 * many sibling requests are in flight or how many driver threads it
 * was granted. The SearchDriver guarantees the thread-count
 * independence; the facade adds per-request isolation (each request's
 * search state lives entirely inside its pipeline call).
 *
 * Cancellation is cooperative and iteration-granular: the caller sets
 * the atomic ScheduleRequest::cancel points at, the annealing loops
 * poll it every kStopCheckInterval iterations (RunSaWindow,
 * search/driver.h), and the pipeline gives up at the next phase boundary
 * with error "cancelled". ScheduleRequest::deadline_ms rides the same
 * mechanism: the search stops once the wall-clock budget is spent and
 * the result is marked deadline_expired (ok with the best-so-far scheme
 * if one was found, an error otherwise).
 *
 * The facade is built from the free functions that implement each step
 * (RunSoma, RunCocco, GenerateIr, ...), which stay callable directly.
 */
#ifndef SOMA_API_SCHEDULER_H
#define SOMA_API_SCHEDULER_H

#include "api/registry.h"
#include "api/request.h"
#include "hw/memory_model.h"

namespace soma {

class Scheduler {
  public:
    Scheduler();

    /** The pluggable extension points. Configure before scheduling;
     *  registration is not synchronized with in-flight requests. */
    ModelRegistry &models() { return models_; }
    HardwareRegistry &hardware() { return hardware_; }
    SchedulerRegistry &schedulers() { return schedulers_; }
    MemoryModelRegistry &memory_models() { return memory_models_; }

    /** Run @p request to completion in the calling thread. Safe to
     *  call from many threads at once. */
    ScheduleResult Schedule(const ScheduleRequest &request) const;

  private:
    ModelRegistry models_;
    HardwareRegistry hardware_;
    SchedulerRegistry schedulers_;
    MemoryModelRegistry memory_models_;
};

}  // namespace soma

#endif  // SOMA_API_SCHEDULER_H

/**
 * @file
 * Hot-path profiling hooks: SOMA_PROF_SCOPE("name") aggregates
 * time/invocation counts per static site, cheap enough for the SA
 * inner loop (the timeline evaluator runs millions of times per
 * search; per-call trace spans would drown both the tracer and the
 * search itself).
 *
 * Cost model:
 *  - disabled (default): one relaxed atomic load + branch per scope —
 *    no clock read, no stores. bench_sa_throughput gates this at < 2%
 *    of per-candidate cost in CI.
 *  - enabled: two clock reads + two relaxed fetch_adds per scope.
 *
 * Enabling is scoped and refcounted: hold a ProfEnableScope for the
 * measured region (somac --stats, a traced pipeline, the bench's
 * prof rows). SOMA_PROF=1 in the environment enables it process-wide.
 *
 * Sites register themselves on first execution through a lock-free
 * intrusive list of function-local statics; ProfSnapshot() walks the
 * list into a name-sorted vector. Counters only ever accumulate —
 * consumers diff two snapshots to attribute cost to a phase (see
 * Scheduler::Schedule, which feeds each site's per-request
 * prof.<site>.{calls,nanos} deltas into the metrics registry).
 */
#ifndef SOMA_OBS_PROF_H
#define SOMA_OBS_PROF_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.h"

namespace soma {
namespace obs {

/** One static instrumentation site. Constructed once per SOMA_PROF_SCOPE
 *  location (function-local static) and never destroyed before exit. */
struct ProfSite {
    explicit ProfSite(const char *site_name);

    const char *const name;
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> nanos{0};
    ProfSite *next = nullptr;  ///< intrusive registry list (immutable
                               ///< after the registering CAS)
};

/** True while any ProfEnableScope is live or SOMA_PROF is set in the
 *  environment (read once). */
bool ProfilingEnabled();

/** Refcounted enablement for one measured region. */
class ProfEnableScope {
  public:
    ProfEnableScope();
    ~ProfEnableScope();
    ProfEnableScope(const ProfEnableScope &) = delete;
    ProfEnableScope &operator=(const ProfEnableScope &) = delete;
};

/** Accumulated totals of one site at snapshot time. */
struct ProfEntry {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t nanos = 0;
};

/** All registered sites, sorted by name (sites that never executed are
 *  absent — registration happens on first use). */
std::vector<ProfEntry> ProfSnapshot();

/** Total nanos accumulated under @p name across @p snapshot (0 when
 *  the site is absent). */
std::uint64_t ProfNanos(const std::vector<ProfEntry> &snapshot,
                        const std::string &name);

/** The guard timer behind SOMA_PROF_SCOPE. */
class ProfScopeTimer {
  public:
    explicit ProfScopeTimer(ProfSite &site)
        : site_(ProfilingEnabled() ? &site : nullptr)
    {
        if (site_) start_ = MonotonicNow();
    }
    ~ProfScopeTimer()
    {
        if (site_) {
            site_->calls.fetch_add(1, std::memory_order_relaxed);
            site_->nanos.fetch_add(
                static_cast<std::uint64_t>(NanosSince(start_)),
                std::memory_order_relaxed);
        }
    }
    ProfScopeTimer(const ProfScopeTimer &) = delete;
    ProfScopeTimer &operator=(const ProfScopeTimer &) = delete;

  private:
    ProfSite *const site_;
    MonotonicTime start_{};
};

}  // namespace obs
}  // namespace soma

#define SOMA_PROF_CONCAT_(a, b) a##b
#define SOMA_PROF_CONCAT(a, b) SOMA_PROF_CONCAT_(a, b)

/** Aggregate the enclosing scope's wall time under @p site_name. */
#define SOMA_PROF_SCOPE(site_name)                                     \
    static ::soma::obs::ProfSite SOMA_PROF_CONCAT(soma_prof_site_,     \
                                                  __LINE__){site_name};\
    ::soma::obs::ProfScopeTimer SOMA_PROF_CONCAT(soma_prof_timer_,     \
                                                 __LINE__)(            \
        SOMA_PROF_CONCAT(soma_prof_site_, __LINE__))

#endif  // SOMA_OBS_PROF_H

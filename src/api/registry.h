/**
 * @file
 * The three pluggable registries behind the Scheduler facade. Each maps
 * a name onto a factory so new scenarios bolt on without touching call
 * sites:
 *
 *  - ModelRegistry:     workload name -> Graph builder. Built-ins wrap
 *    the models.h zoo; consumers register custom builders (see
 *    examples/gpt2_llm.cpp, which registers token-length variants).
 *  - HardwareRegistry:  hardware name -> HardwareConfig. Built-ins are
 *    the paper's "edge" and "cloud" presets.
 *  - SchedulerRegistry: scheduler name -> exploration strategy.
 *    Built-ins: "soma" (two-stage + buffer allocator), "cocco"
 *    (ASPLOS'24 baseline), "lfa-only" (stage 1 with the classical
 *    double-buffer DLSA, no DLSA exploration).
 *
 * Lookups never die: unknown names produce an error string listing the
 * registered names. Registration is not synchronized — configure
 * registries before scheduling from multiple threads.
 */
#ifndef SOMA_API_REGISTRY_H
#define SOMA_API_REGISTRY_H

#include <functional>
#include <string>
#include <vector>

#include "api/request.h"
#include "hw/hardware.h"
#include "search/buffer_allocator.h"
#include "workload/graph.h"

namespace soma {

class ModelRegistry {
  public:
    using Builder = std::function<Graph(int batch)>;

    /** Empty registry (for tests / fully custom zoos). */
    ModelRegistry() = default;

    /** Registry pre-populated with the models.h zoo. */
    static ModelRegistry WithBuiltins();

    /** Registers (or replaces) a builder. */
    void Register(const std::string &name, Builder builder);

    bool Has(const std::string &name) const;
    std::vector<std::string> Names() const;  ///< registration order

    /** Builds @p name at @p batch. On unknown names returns false and
     *  sets @p err to a message listing the registered names. */
    bool Build(const std::string &name, int batch, Graph *out,
               std::string *err) const;

  private:
    std::vector<std::pair<std::string, Builder>> builders_;
};

class HardwareRegistry {
  public:
    using Factory = std::function<HardwareConfig()>;

    HardwareRegistry() = default;

    /** Registry pre-populated with "edge" and "cloud". */
    static HardwareRegistry WithBuiltins();

    void Register(const std::string &name, Factory factory);

    bool Has(const std::string &name) const;
    std::vector<std::string> Names() const;

    bool Make(const std::string &name, HardwareConfig *out,
              std::string *err) const;

  private:
    std::vector<std::pair<std::string, Factory>> factories_;
};

/**
 * What one scheduler run produces, independent of the strategy: the
 * winning scheme in all representations plus its evaluation. Schedulers
 * without a distinct stage-1 view (cocco, lfa-only) leave stage1_report
 * invalid and mirror `dlsa` into `stage1_dlsa`.
 */
struct SchedulerRunResult {
    LfaEncoding lfa;
    ParsedSchedule parsed;
    DlsaEncoding dlsa;
    DlsaEncoding stage1_dlsa;
    EvalReport report;
    EvalReport stage1_report;
    double cost = 0.0;
    SaStats stats;
    int outer_iterations = 0;
};

/**
 * An exploration strategy. It resolves its own options from
 * @p request: the builtins apply WithRequestOverrides to
 * SomaOptionsFor / CoccoOptionsFor of the request's profile and seed.
 */
using SchedulerFn = std::function<SchedulerRunResult(
    const Graph &graph, const HardwareConfig &hw,
    const ScheduleRequest &request)>;

class SchedulerRegistry {
  public:
    SchedulerRegistry() = default;

    /** Registry pre-populated with "soma", "cocco" and "lfa-only". */
    static SchedulerRegistry WithBuiltins();

    void Register(const std::string &name, SchedulerFn fn);

    bool Has(const std::string &name) const;
    std::vector<std::string> Names() const;

    /** Pointer into the registry (stable until the next Register), or
     *  nullptr with @p err listing the registered names. */
    const SchedulerFn *Find(const std::string &name,
                            std::string *err) const;

  private:
    std::vector<std::pair<std::string, SchedulerFn>> fns_;
};

}  // namespace soma

#endif  // SOMA_API_REGISTRY_H

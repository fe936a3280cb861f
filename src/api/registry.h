/**
 * @file
 * The three pluggable registries behind the Scheduler facade, each a
 * Registry<Entry> (common/registry.h) mapping a name onto a factory so
 * new scenarios bolt on without touching call sites:
 *
 *  - ModelRegistry:     workload name -> Graph builder. Built-ins are
 *    the models.h zoo (ModelZoo); consumers register custom builders
 *    (see examples/gpt2_llm.cpp, which registers token-length
 *    variants).
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

#include "api/request.h"
#include "common/registry.h"
#include "hw/hardware.h"
#include "search/buffer_allocator.h"
#include "workload/graph.h"

namespace soma {

class ModelRegistry : public Registry<std::function<Graph(int batch)>> {
  public:
    /** Empty registry (for tests / fully custom zoos). */
    ModelRegistry() : Registry("model") {}

    /** Registry pre-populated with the models.h zoo. */
    static ModelRegistry WithBuiltins();

    /** Builds @p name at @p batch. On unknown names returns false and
     *  sets @p err to a message listing the registered names. */
    bool Build(const std::string &name, int batch, Graph *out,
               std::string *err) const;
};

class HardwareRegistry : public Registry<std::function<HardwareConfig()>> {
  public:
    HardwareRegistry() : Registry("hardware") {}

    /** Registry pre-populated with "edge" and "cloud". */
    static HardwareRegistry WithBuiltins();

    bool Make(const std::string &name, HardwareConfig *out,
              std::string *err) const;
};

/**
 * An exploration strategy. It resolves its own options from
 * @p request: the builtins apply WithRequestOverrides to
 * SomaOptionsFor / CoccoOptionsFor of the request's profile and seed.
 */
using SchedulerFn = std::function<SearchResult(
    const Graph &graph, const HardwareConfig &hw,
    const ScheduleRequest &request)>;

class SchedulerRegistry : public Registry<SchedulerFn> {
  public:
    SchedulerRegistry() : Registry("scheduler") {}

    /** Registry pre-populated with "soma", "cocco" and "lfa-only". */
    static SchedulerRegistry WithBuiltins();
};

}  // namespace soma

#endif  // SOMA_API_REGISTRY_H

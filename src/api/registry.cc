#include "api/registry.h"

#include "baselines/cocco.h"
#include "corearray/core_array.h"
#include "search/lfa_stage.h"
#include "search/soma.h"
#include "workload/models.h"

namespace soma {

ModelRegistry
ModelRegistry::WithBuiltins()
{
    ModelRegistry reg;
    for (const ModelZooEntry &m : ModelZoo()) reg.Register(m.name, m.build);
    return reg;
}

bool
ModelRegistry::Build(const std::string &name, int batch, Graph *out,
                     std::string *err) const
{
    const auto *builder = Find(name, err);
    if (!builder) return false;
    *out = (*builder)(batch);
    return true;
}

HardwareRegistry
HardwareRegistry::WithBuiltins()
{
    HardwareRegistry reg;
    reg.Register("edge", EdgeAccelerator);
    reg.Register("cloud", CloudAccelerator);
    return reg;
}

bool
HardwareRegistry::Make(const std::string &name, HardwareConfig *out,
                       std::string *err) const
{
    const auto *factory = Find(name, err);
    if (!factory) return false;
    *out = (*factory)();
    return true;
}

SchedulerRegistry
SchedulerRegistry::WithBuiltins()
{
    SchedulerRegistry reg;
    reg.Register("soma", [](const Graph &graph, const HardwareConfig &hw,
                            const ScheduleRequest &request) {
        return RunSoma(graph, hw,
                       WithRequestOverrides(
                           SomaOptionsFor(request.profile, request.seed),
                           request));
    });
    reg.Register("cocco", [](const Graph &graph, const HardwareConfig &hw,
                             const ScheduleRequest &request) {
        return RunCocco(graph, hw,
                        WithRequestOverrides(
                            CoccoOptionsFor(request.profile, request.seed),
                            request));
    });
    reg.Register("lfa-only", [](const Graph &graph, const HardwareConfig &hw,
                                const ScheduleRequest &request) {
        const SomaOptions opts = WithRequestOverrides(
            SomaOptionsFor(request.profile, request.seed), request);
        Rng rng(opts.seed);
        return RunLfaStage(graph, hw, CoreArrayEvaluator(graph, hw),
                           hw.gbuf_bytes, opts, rng);
    });
    return reg;
}

}  // namespace soma

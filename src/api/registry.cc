#include "api/registry.h"

#include <limits>

#include "baselines/cocco.h"
#include "corearray/core_array.h"
#include "search/lfa_stage.h"
#include "search/soma.h"
#include "workload/models.h"

namespace soma {

namespace {

std::string
JoinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names) {
        if (!out.empty()) out += ", ";
        out += n;
    }
    return out;
}

}  // namespace

// ----------------------------------------------------------- ModelRegistry

ModelRegistry
ModelRegistry::WithBuiltins()
{
    ModelRegistry reg;
    for (const std::string &name : AvailableModels()) {
        reg.Register(name, [name](int batch) {
            return BuildModelByName(name, batch);
        });
    }
    return reg;
}

void
ModelRegistry::Register(const std::string &name, Builder builder)
{
    for (auto &kv : builders_) {
        if (kv.first == name) {
            kv.second = std::move(builder);
            return;
        }
    }
    builders_.emplace_back(name, std::move(builder));
}

bool
ModelRegistry::Has(const std::string &name) const
{
    for (const auto &kv : builders_)
        if (kv.first == name) return true;
    return false;
}

std::vector<std::string>
ModelRegistry::Names() const
{
    std::vector<std::string> names;
    names.reserve(builders_.size());
    for (const auto &kv : builders_) names.push_back(kv.first);
    return names;
}

bool
ModelRegistry::Build(const std::string &name, int batch, Graph *out,
                     std::string *err) const
{
    for (const auto &kv : builders_) {
        if (kv.first == name) {
            *out = kv.second(batch);
            return true;
        }
    }
    if (err)
        *err = "unknown model \"" + name + "\" (registered: " +
               JoinNames(Names()) + ")";
    return false;
}

// -------------------------------------------------------- HardwareRegistry

HardwareRegistry
HardwareRegistry::WithBuiltins()
{
    HardwareRegistry reg;
    reg.Register("edge", [] { return EdgeAccelerator(); });
    reg.Register("cloud", [] { return CloudAccelerator(); });
    return reg;
}

void
HardwareRegistry::Register(const std::string &name, Factory factory)
{
    for (auto &kv : factories_) {
        if (kv.first == name) {
            kv.second = std::move(factory);
            return;
        }
    }
    factories_.emplace_back(name, std::move(factory));
}

bool
HardwareRegistry::Has(const std::string &name) const
{
    for (const auto &kv : factories_)
        if (kv.first == name) return true;
    return false;
}

std::vector<std::string>
HardwareRegistry::Names() const
{
    std::vector<std::string> names;
    names.reserve(factories_.size());
    for (const auto &kv : factories_) names.push_back(kv.first);
    return names;
}

bool
HardwareRegistry::Make(const std::string &name, HardwareConfig *out,
                       std::string *err) const
{
    for (const auto &kv : factories_) {
        if (kv.first == name) {
            *out = kv.second();
            return true;
        }
    }
    if (err)
        *err = "unknown hardware \"" + name + "\" (registered: " +
               JoinNames(Names()) + ")";
    return false;
}

// ------------------------------------------------------- SchedulerRegistry

namespace {

SchedulerRunResult
RunSomaScheduler(const Graph &graph, const HardwareConfig &hw,
                 const ScheduleRequest &request)
{
    SomaSearchResult r = RunSoma(
        graph, hw,
        WithRequestOverrides(SomaOptionsFor(request.profile, request.seed),
                             request));
    SchedulerRunResult out;
    out.lfa = std::move(r.lfa);
    out.parsed = std::move(r.parsed);
    out.dlsa = std::move(r.dlsa);
    out.stage1_dlsa = std::move(r.stage1_dlsa);
    out.report = r.report;
    out.stage1_report = r.stage1_report;
    out.cost = r.cost;
    out.outer_iterations = r.outer_iterations;
    AccumulateSaStats(&out.stats, r.lfa_stats);
    AccumulateSaStats(&out.stats, r.dlsa_stats);
    return out;
}

SchedulerRunResult
RunCoccoScheduler(const Graph &graph, const HardwareConfig &hw,
                  const ScheduleRequest &request)
{
    CoccoResult r = RunCocco(
        graph, hw,
        WithRequestOverrides(CoccoOptionsFor(request.profile, request.seed),
                             request));
    SchedulerRunResult out;
    out.lfa = std::move(r.lfa);
    out.parsed = std::move(r.parsed);
    out.dlsa = r.dlsa;
    out.stage1_dlsa = std::move(r.dlsa);
    out.report = r.report;
    out.cost = r.cost;
    out.stats = r.stats;
    out.outer_iterations = 1;
    return out;
}

SchedulerRunResult
RunLfaOnlyScheduler(const Graph &graph, const HardwareConfig &hw,
                    const ScheduleRequest &request)
{
    const SomaOptions opts = WithRequestOverrides(
        SomaOptionsFor(request.profile, request.seed), request);
    const CoreArrayEvaluator core_eval(graph, hw);
    Rng rng(opts.seed);
    LfaStageResult r =
        RunLfaStage(graph, hw, core_eval, hw.gbuf_bytes, opts, rng);
    SchedulerRunResult out;
    out.lfa = std::move(r.lfa);
    out.parsed = std::move(r.parsed);
    out.dlsa = r.dlsa;
    out.stage1_dlsa = std::move(r.dlsa);
    out.report = r.report;
    out.cost = r.cost;
    out.stats = r.stats;
    out.outer_iterations = 1;
    return out;
}

}  // namespace

SchedulerRegistry
SchedulerRegistry::WithBuiltins()
{
    SchedulerRegistry reg;
    reg.Register("soma", RunSomaScheduler);
    reg.Register("cocco", RunCoccoScheduler);
    reg.Register("lfa-only", RunLfaOnlyScheduler);
    return reg;
}

void
SchedulerRegistry::Register(const std::string &name, SchedulerFn fn)
{
    for (auto &kv : fns_) {
        if (kv.first == name) {
            kv.second = std::move(fn);
            return;
        }
    }
    fns_.emplace_back(name, std::move(fn));
}

bool
SchedulerRegistry::Has(const std::string &name) const
{
    for (const auto &kv : fns_)
        if (kv.first == name) return true;
    return false;
}

std::vector<std::string>
SchedulerRegistry::Names() const
{
    std::vector<std::string> names;
    names.reserve(fns_.size());
    for (const auto &kv : fns_) names.push_back(kv.first);
    return names;
}

const SchedulerFn *
SchedulerRegistry::Find(const std::string &name, std::string *err) const
{
    for (const auto &kv : fns_)
        if (kv.first == name) return &kv.second;
    if (err)
        *err = "unknown scheduler \"" + name + "\" (registered: " +
               JoinNames(Names()) + ")";
    return nullptr;
}

}  // namespace soma

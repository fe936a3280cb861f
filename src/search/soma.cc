#include "search/soma.h"

namespace soma {

SomaOptions
PropagateSomaOptions(SomaOptions opts)
{
    opts.lfa.cost_n = opts.cost_n;
    opts.lfa.cost_m = opts.cost_m;
    opts.dlsa.cost_n = opts.cost_n;
    opts.dlsa.cost_m = opts.cost_m;
    opts.lfa.driver = opts.driver;
    opts.dlsa.driver = opts.driver;
    return opts;
}

const SomaProfileBudgets &
SomaBudgetsFor(SearchProfile profile)
{
    // Default was raised from (40/6000, 40/8000) once the incremental
    // LFA pipeline (group-memoized parse + shared tiling cache) lifted
    // candidates/s; Full carries the paper's budgets
    // (Sec. V-C): beta_1 = 100, beta_2 = 1000 — the caps only guard
    // degenerate workloads (thousands of layers / tensors).
    static const SomaProfileBudgets kQuick = {
        /*lfa_beta=*/10,   /*lfa_max_iterations=*/600,
        /*dlsa_beta=*/10,  /*dlsa_max_iterations=*/1500,
        /*alloc_max_iterations=*/2,
        /*bench_dlsa_iters=*/2000, /*bench_lfa_iters=*/200,
        /*bench_stage_iters=*/1500};
    static const SomaProfileBudgets kDefault = {
        /*lfa_beta=*/60,   /*lfa_max_iterations=*/12000,
        /*dlsa_beta=*/200, /*dlsa_max_iterations=*/24000,
        /*alloc_max_iterations=*/3,
        /*bench_dlsa_iters=*/10000, /*bench_lfa_iters=*/1000,
        /*bench_stage_iters=*/6000};
    static const SomaProfileBudgets kFull = {
        /*lfa_beta=*/100,   /*lfa_max_iterations=*/50000,
        /*dlsa_beta=*/1000, /*dlsa_max_iterations=*/150000,
        /*alloc_max_iterations=*/5,
        /*bench_dlsa_iters=*/50000, /*bench_lfa_iters=*/4000,
        /*bench_stage_iters=*/20000};
    switch (profile) {
      case SearchProfile::kQuick:
        return kQuick;
      case SearchProfile::kFull:
        return kFull;
      case SearchProfile::kDefault:
      default:
        return kDefault;
    }
}

namespace {

SomaOptions
OptionsFromBudgets(const SomaProfileBudgets &b, std::uint64_t seed)
{
    SomaOptions opts;
    opts.seed = seed;
    opts.lfa.beta = b.lfa_beta;
    opts.lfa.max_iterations = b.lfa_max_iterations;
    opts.dlsa.beta = b.dlsa_beta;
    opts.dlsa.max_iterations = b.dlsa_max_iterations;
    opts.alloc.max_iterations = b.alloc_max_iterations;
    return opts;
}

}  // namespace

SomaOptions
QuickSomaOptions(std::uint64_t seed)
{
    return OptionsFromBudgets(SomaBudgetsFor(SearchProfile::kQuick), seed);
}

SomaOptions
DefaultSomaOptions(std::uint64_t seed)
{
    SomaOptions opts =
        OptionsFromBudgets(SomaBudgetsFor(SearchProfile::kDefault), seed);
    opts.driver.chains = 4;
    return opts;
}

SomaOptions
FullSomaOptions(std::uint64_t seed)
{
    SomaOptions opts =
        OptionsFromBudgets(SomaBudgetsFor(SearchProfile::kFull), seed);
    opts.driver.chains = 4;
    return opts;
}

SomaSearchResult
RunSoma(const Graph &graph, const HardwareConfig &hw, SomaOptions opts)
{
    opts = PropagateSomaOptions(std::move(opts));
    Rng rng(opts.seed);
    return RunBufferAllocatedSearch(graph, hw, opts.lfa, opts.dlsa,
                                    opts.alloc, rng);
}

}  // namespace soma

#include "search/soma.h"

namespace soma {

const char *
ToString(SearchProfile profile)
{
    switch (profile) {
      case SearchProfile::kQuick: return "quick";
      case SearchProfile::kDefault: return "default";
      case SearchProfile::kFull: return "full";
    }
    return "?";
}

bool
ParseSearchProfile(const std::string &name, SearchProfile *out)
{
    if (name == "quick") *out = SearchProfile::kQuick;
    else if (name == "default") *out = SearchProfile::kDefault;
    else if (name == "full") *out = SearchProfile::kFull;
    else return false;
    return true;
}

const ProfileBudgets &
BudgetsFor(SearchProfile profile)
{
    // Default was raised from (40/6000, 40/8000) once the incremental
    // LFA pipeline (the group-memoized parse) lifted candidates/s; Full
    // carries the paper's budgets (Sec. V-C): beta_1 = 100,
    // beta_2 = 1000 — the caps only guard degenerate workloads
    // (thousands of layers / tensors).
    static const ProfileBudgets kTable[] = {
        //  LFA beta/cap  DLSA beta/cap  alloc chains  Cocco beta/cap chains
        {10, 600, 10, 1500, 2, 2, 10, 600, 2},               // quick
        {60, 12000, 200, 24000, 3, 4, 40, 4000, 2},          // default
        {100, 50000, 1000, 150000, 5, 4, 100, 20000, 2},     // full
    };
    return kTable[static_cast<int>(profile)];
}

SomaOptions
SomaOptionsFor(SearchProfile profile, std::uint64_t seed)
{
    const ProfileBudgets &b = BudgetsFor(profile);
    SomaOptions opts;
    opts.seed = seed;
    opts.driver.chains = b.soma_chains;
    opts.lfa.beta = b.lfa_beta;
    opts.lfa.max_iterations = b.lfa_max_iterations;
    opts.dlsa.beta = b.dlsa_beta;
    opts.dlsa.max_iterations = b.dlsa_max_iterations;
    opts.alloc.max_iterations = b.alloc_max_iterations;
    return opts;
}

SearchResult
RunSoma(const Graph &graph, const HardwareConfig &hw, const SomaOptions &opts)
{
    Rng rng(opts.seed);
    return RunBufferAllocatedSearch(graph, hw, opts, rng);
}

}  // namespace soma

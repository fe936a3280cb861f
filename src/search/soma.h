/**
 * @file
 * SoMa end-to-end driver (Fig. 5): model + hardware + framework configs
 * in; best scheduling scheme, energy/latency report (and, through
 * src/compiler, IR + instructions) out.
 */
#ifndef SOMA_SEARCH_SOMA_H
#define SOMA_SEARCH_SOMA_H

#include <cstdint>

#include "search/buffer_allocator.h"

namespace soma {

/**
 * Framework configuration: optimization goal Energy^n x Delay^m, search
 * hyperparameters, seed. The default iteration budgets are scaled down
 * from the paper's (beta_1=100, beta_2=1000 on a 192-core server) to
 * laptop-friendly values; raise them for higher-fidelity runs.
 */
struct SomaOptions {
    double cost_n = 1.0;
    double cost_m = 1.0;
    std::uint64_t seed = 1;

    /** Parallel multi-seed search configuration, applied to both
     *  stages. Results are deterministic in (seed, driver.chains) and
     *  independent of driver.threads. */
    SearchDriverOptions driver;

    LfaStageOptions lfa;
    DlsaStageOptions dlsa;
    BufferAllocatorOptions alloc;
};

/** Search effort presets (quick/default/full) mapping onto the
 *  DESIGN.md budget table; ScheduleRequest::profile names one. */
enum class SearchProfile { kQuick, kDefault, kFull };

/**
 * One profile's iteration budgets — the single source the
 * Quick/Default/FullSomaOptions presets and bench_sa_throughput's
 * profile table both draw from, so the facade and the bench can never
 * quote different budgets for the same profile name.
 */
struct SomaProfileBudgets {
    int lfa_beta = 0;
    int lfa_max_iterations = 0;
    int dlsa_beta = 0;
    int dlsa_max_iterations = 0;
    int alloc_max_iterations = 0;
    /** bench_sa_throughput loop sizes at this profile: DLSA/LFA inner
     *  walk iterations and the driver-stage per-chain iteration cap. */
    int bench_dlsa_iters = 0;
    int bench_lfa_iters = 0;
    int bench_stage_iters = 0;
};

/** The budgets of @p profile (static storage, never changes). */
const SomaProfileBudgets &SomaBudgetsFor(SearchProfile profile);

/**
 * Copy of @p opts with the top-level cost exponents and driver config
 * propagated into both stage options. RunSoma applies this internally —
 * callers never need to; it is exposed only for code that invokes
 * RunLfaStage / RunDlsaStage directly from a SomaOptions (e.g. the
 * "lfa-only" scheduler in src/api/registry.cc).
 */
SomaOptions PropagateSomaOptions(SomaOptions opts);

/** A quick profile for tests/examples: small SA budgets. */
SomaOptions QuickSomaOptions(std::uint64_t seed = 1);

/** The default evaluation profile used by the benches. */
SomaOptions DefaultSomaOptions(std::uint64_t seed = 1);

/** Paper-fidelity budgets (beta_1 = beta_2 = 100, 5 outer iterations):
 *  the benches' "full" profile. */
SomaOptions FullSomaOptions(std::uint64_t seed = 1);

/** Run the full two-stage, buffer-allocated exploration. Cost exponents
 *  and driver config are propagated into the stages internally. */
SomaSearchResult RunSoma(const Graph &graph, const HardwareConfig &hw,
                         SomaOptions opts);

}  // namespace soma

#endif  // SOMA_SEARCH_SOMA_H

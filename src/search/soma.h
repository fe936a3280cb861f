/**
 * @file
 * SoMa end-to-end driver (Fig. 5): model + hardware + framework configs
 * in; best scheduling scheme, energy/latency report (and, through
 * src/compiler, IR + instructions) out.
 */
#ifndef SOMA_SEARCH_SOMA_H
#define SOMA_SEARCH_SOMA_H

#include <cstdint>
#include <string>

#include "search/buffer_allocator.h"

namespace soma {

/**
 * Framework configuration, the one home of every SoMa search setting:
 * optimization goal Energy^n x Delay^m, seed, the parallel driver and
 * each stage's budget. RunSoma seeds the search from `seed`; both
 * stages and the buffer allocator read the objective and the driver
 * from here. The default iteration budgets are scaled down from the
 * paper's (beta_1=100, beta_2=1000 on a 192-core server) to
 * laptop-friendly values; SomaOptionsFor gives the profile budgets.
 */
struct SomaOptions {
    double cost_n = 1.0;
    double cost_m = 1.0;
    std::uint64_t seed = 1;

    /** Parallel multi-seed search configuration of both stages.
     *  Results are deterministic in (seed, driver.chains) and
     *  independent of driver.threads. */
    SearchDriverOptions driver;

    LfaStageOptions lfa;
    DlsaStageOptions dlsa;
    BufferAllocatorOptions alloc;
};

/** Search effort presets (quick/default/full) mapping onto the
 *  DESIGN.md budget table; ScheduleRequest::profile names one. */
enum class SearchProfile { kQuick, kDefault, kFull };

/** "quick", "default" or "full". */
const char *ToString(SearchProfile profile);
/** Inverse of ToString; false on any other name. */
bool ParseSearchProfile(const std::string &name, SearchProfile *out);

/**
 * One profile's budgets and chain counts for SoMa and the Cocco
 * baseline — the one table SomaOptionsFor and CoccoOptionsFor
 * (baselines/cocco.h) read.
 */
struct ProfileBudgets {
    int lfa_beta;
    int lfa_max_iterations;
    int dlsa_beta;
    int dlsa_max_iterations;
    int alloc_max_iterations;
    int soma_chains;
    int cocco_beta;
    int cocco_max_iterations;
    int cocco_chains;
};

/** The budgets of @p profile (static storage, never changes). */
const ProfileBudgets &BudgetsFor(SearchProfile profile);

/** The SoMa options of @p profile, seeded with @p seed. */
SomaOptions SomaOptionsFor(SearchProfile profile, std::uint64_t seed = 1);

/** Run the full two-stage, buffer-allocated exploration. */
SearchResult RunSoma(const Graph &graph, const HardwareConfig &hw,
                     const SomaOptions &opts);

}  // namespace soma

#endif  // SOMA_SEARCH_SOMA_H

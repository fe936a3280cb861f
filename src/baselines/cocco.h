/**
 * @file
 * Cocco baseline (Tan et al., ASPLOS'24) as characterized by the paper
 * (Sec. IV-B): within our Tensor-centric Notation only the Computing
 * Order and the DRAM Cut set are explorable; the FLC set always equals
 * the DRAM Cut set (an LG is a single FLG), the Tiling Number comes from
 * the KC-parallelism heuristic, and DRAM timing is the classical
 * double-buffer strategy. Shares SoMa's evaluator for apples-to-apples
 * comparison.
 */
#ifndef SOMA_BASELINES_COCCO_H
#define SOMA_BASELINES_COCCO_H

#include "corearray/core_array.h"
#include "notation/encoding.h"
#include "search/driver.h"
#include "search/soma.h"
#include "sim/report.h"

namespace soma {

/** Cocco search settings. */
struct CoccoOptions {
    int beta = 100;             ///< iterations = beta * num_layers
    int max_iterations = 8000;
    /** Greedy fusion seeding, mirroring the LFA stage's. Cocco's real
     *  genetic search explores grouping thoroughly; the seed keeps the
     *  laptop-budget comparison about the scheduling space, not the
     *  optimizer budget. */
    bool greedy_seed = true;
    double cost_n = 1.0;
    double cost_m = 1.0;
    std::uint64_t seed = 1;
    SearchDriverOptions driver;
};

/** The Cocco options of @p profile (the Cocco rows of BudgetsFor),
 *  seeded with @p seed. */
CoccoOptions CoccoOptionsFor(SearchProfile profile, std::uint64_t seed = 1);

/** Run the Cocco exploration. The result has no DLSA stage: its
 *  `stage1_dlsa` is its `dlsa`, its `stage1_report` invalid. */
SearchResult RunCocco(const Graph &graph, const HardwareConfig &hw,
                      const CoccoOptions &opts);

/**
 * The Cocco encoding for a given order and DRAM-cut set: FLC = DRAM
 * cuts, heuristic tiling per LG. Exposed for tests and for Fig. 3's
 * tile-level scatter, which needs Cocco's tiling of a given fusion plan.
 */
LfaEncoding MakeCoccoLfa(const Graph &graph, const HardwareConfig &hw,
                         const std::vector<LayerId> &order,
                         const std::vector<int> &dram_cuts, int tiling_cap);

}  // namespace soma

#endif  // SOMA_BASELINES_COCCO_H

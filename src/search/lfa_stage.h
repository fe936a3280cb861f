/**
 * @file
 * The LFA exploration stage (Sec. V-C1): simulated annealing over
 * Computing Order, FLC set, Tiling Numbers and DRAM Cut set, evaluating
 * every candidate with the classical double-buffer DLSA under the
 * stage's buffer budget.
 */
#ifndef SOMA_SEARCH_LFA_STAGE_H
#define SOMA_SEARCH_LFA_STAGE_H

#include "corearray/core_array.h"
#include "notation/encoding.h"
#include "notation/parser.h"
#include "search/driver.h"
#include "search/sa.h"
#include "sim/report.h"

namespace soma {

/** Hyperparameters of the LFA stage. */
struct LfaStageOptions {
    int beta = 100;            ///< iterations = beta * num_layers
    int max_iterations = 8000; ///< scaled-down cap (see DESIGN.md)
    int tiling_cap = 64;       ///< upper bound on any Tiling Number
    double cost_n = 1.0;       ///< Energy exponent
    double cost_m = 1.0;       ///< Delay exponent
    /**
     * Greedy fusion seeding: before annealing, sweep the DRAM cuts once
     * and keep each merge that does not worsen the cost. A scaled-down-
     * budget adaptation (DESIGN.md): the paper's 192-core SA budget
     * deletes hundreds of cuts by random walk; on a laptop the seed
     * recovers that head start deterministically.
     */
    bool greedy_seed = true;
    SaOptions sa;
    SearchDriverOptions driver;
};

/** Best scheme found by one LFA stage run. */
struct LfaStageResult {
    LfaEncoding lfa;
    ParsedSchedule parsed;
    DlsaEncoding dlsa;     ///< the double-buffer DLSA of `lfa`
    EvalReport report;     ///< evaluated at the stage budget
    double cost = 0.0;
    SaStats stats;
};

/**
 * Run the LFA stage under @p stage_budget bytes of GBUF.
 * @p total_ops is the utilization numerator (graph.TotalOps()).
 */
LfaStageResult RunLfaStage(const Graph &graph, const HardwareConfig &hw,
                           const CoreArrayEvaluator &core_eval,
                           Bytes stage_budget, const LfaStageOptions &opts,
                           Rng &rng);

/**
 * "Change Computing Order" operator, shared with the Cocco baseline:
 * move a random layer to another dependency-legal position. Returns
 * false if the chosen layer cannot move.
 */
bool MutateOrderMoveLayer(const Graph &graph, std::vector<LayerId> *order,
                          Rng &rng);

/** Initial LFA: unfused, heuristic-parallel tiling (Sec. V-C1). */
LfaEncoding MakeInitialLfa(const Graph &graph, const HardwareConfig &hw,
                           int tiling_cap);

/**
 * Apply one uniformly chosen LFA operator (Sec. V-C1): change order,
 * scale a Tiling Number, add/delete an FLC, add/delete a DRAM cut.
 * Returns false if no applicable move was found. Exposed for the
 * property tests and ablation benches.
 */
bool MutateLfaEncoding(const Graph &graph, const LfaEncoding &cur,
                       LfaEncoding *next, int tiling_cap, Rng &rng);

}  // namespace soma

#endif  // SOMA_SEARCH_LFA_STAGE_H

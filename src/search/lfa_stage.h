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
#include "sim/report.h"

namespace soma {

/** Upper bound on any Tiling Number the LFA stage (and the Cocco
 *  baseline) proposes. */
constexpr int kTilingCap = 64;

/** Budget of the LFA stage; the objective and driver come from the
 *  SomaOptions the stage is run with. */
struct LfaStageOptions {
    int beta = 100;            ///< iterations = beta * num_layers
    int max_iterations = 8000; ///< scaled-down cap (see DESIGN.md)
    /**
     * Greedy fusion seeding: before annealing, sweep the DRAM cuts once
     * and keep each merge that does not worsen the cost. A scaled-down-
     * budget adaptation (DESIGN.md): the paper's 192-core SA budget
     * deletes hundreds of cuts by random walk; on a laptop the seed
     * recovers that head start deterministically.
     */
    bool greedy_seed = true;
};

struct SomaOptions;  // search/soma.h

/**
 * The best scheme one search found, whatever the strategy: the LFA
 * stage, the two-stage SoMa search (RunBufferAllocatedSearch) and the
 * Cocco baseline all return it, and so does every SchedulerFn. A
 * search without a DLSA stage sets `stage1_dlsa = dlsa` and leaves
 * `stage1_report` invalid.
 */
struct SearchResult {
    LfaEncoding lfa;
    ParsedSchedule parsed;
    DlsaEncoding dlsa;         ///< the scheme's final DLSA
    DlsaEncoding stage1_dlsa;  ///< DLSA before DLSA exploration
    EvalReport report;         ///< "Ours_2": the final evaluation
    EvalReport stage1_report;  ///< "Ours_1": before DLSA exploration
    double cost = 0.0;
    SaStats stats;             ///< summed over every annealing walk
    int outer_iterations = 1;  ///< Buffer Allocator iterations
};

/**
 * Run the LFA stage under @p stage_budget bytes of GBUF with the
 * budget in opts.lfa and the objective and driver of @p opts. The
 * report is evaluated at the stage budget and `dlsa` is the double-
 * buffer (or, under a tight budget, lazy) DLSA of `lfa`.
 */
SearchResult RunLfaStage(const Graph &graph, const HardwareConfig &hw,
                         const CoreArrayEvaluator &core_eval,
                         Bytes stage_budget, const SomaOptions &opts,
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

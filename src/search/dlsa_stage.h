/**
 * @file
 * The DLSA exploration stage (Sec. V-C2): simulated annealing over DRAM
 * Tensor Order and Living Durations for a fixed LFA, starting from the
 * double-buffer solution. Tensors are picked with probability
 * proportional to their size.
 */
#ifndef SOMA_SEARCH_DLSA_STAGE_H
#define SOMA_SEARCH_DLSA_STAGE_H

#include "notation/encoding.h"
#include "notation/parser.h"
#include "search/driver.h"
#include "sim/eval_context.h"
#include "sim/report.h"

namespace soma {

/**
 * The stage's mutation operator: picks a tensor with probability
 * proportional to its size and either moves it to another legal rank in
 * the DRAM Tensor Order or re-draws its Living Duration endpoint. The
 * move is described in a DlsaDelta so an EvalContext can re-evaluate
 * only the affected timeline suffix. Exposed for the regression tests
 * and the SA-throughput bench.
 */
class DlsaMutator {
  public:
    explicit DlsaMutator(const ParsedSchedule &parsed);

    /** Propose a neighbour of @p cur (false: no legal move found). */
    bool operator()(const DlsaEncoding &cur, DlsaEncoding *next, Rng &rng,
                    DlsaDelta *delta) const;

  private:
    const ParsedSchedule &parsed_;
    /** Running sums of the per-tensor byte sizes, in tensor order. */
    std::vector<double> cumulative_bytes_;
};

/** Budget of the DLSA stage; the objective and driver come from the
 *  SomaOptions the stage is run with. */
struct DlsaStageOptions {
    int beta = 1000;            ///< iterations = beta * num_tensors
    int max_iterations = 20000; ///< scaled-down cap (see DESIGN.md)
};

struct SomaOptions;  // search/soma.h

/** Best DLSA found for the given parse. */
struct DlsaStageResult {
    DlsaEncoding dlsa;
    EvalReport report;
    double cost = 0.0;
    SaStats stats;
};

/**
 * Run the DLSA stage over @p parsed with the full hardware budget
 * @p buffer_budget, starting from @p initial, with the budget in
 * opts.dlsa and the objective and driver of @p opts.
 */
DlsaStageResult RunDlsaStage(const Graph &graph, const HardwareConfig &hw,
                             const ParsedSchedule &parsed,
                             const DlsaEncoding &initial,
                             Bytes buffer_budget, const SomaOptions &opts,
                             Rng &rng);

}  // namespace soma

#endif  // SOMA_SEARCH_DLSA_STAGE_H

/**
 * @file
 * Post-search memory-timing validation: re-time a *finished* schedule
 * under the banked row-buffer DRAM model's trace replay and report the
 * analytical-vs-banked latency gap.
 *
 * This is where the history-dependent DRAM effects live that the
 * in-search MemoryModel seam deliberately excludes (memory_model.h):
 * the scheduled DLSA order gives a concrete DRAM Tensor Order
 * transaction stream, which ReplayTensorStream walks burst by burst
 * with bank row state carried across tensors and read<->write bus
 * turnaround. The replayed per-tensor seconds are then written into a
 * copy of the parse as its prices and timed by the evaluator, so the
 * banked latency includes compute/DRAM overlap exactly the way the
 * search's own timeline does — the gap isolates the memory model, not
 * the timeline semantics.
 */
#ifndef SOMA_SIM_MEMORY_VALIDATION_H
#define SOMA_SIM_MEMORY_VALIDATION_H

#include <string>

#include "hw/banked_dram.h"
#include "hw/hardware.h"
#include "notation/parser.h"
#include "workload/graph.h"

namespace soma {

/** Outcome of one ValidateMemoryTiming pass (the numbers behind the
 *  memory.validation_gap_pct gauge and the eval.dram.* counters). */
struct MemoryValidationResult {
    bool ok = false;
    std::string error;

    double analytical_latency = 0.0;  ///< seam = analytical model
    double banked_latency = 0.0;      ///< seam = replayed per-tensor cost
    /** (banked_latency / analytical_latency - 1) * 100. */
    double gap_pct = 0.0;

    BankedReplayStats replay;  ///< transaction-stream counters
};

/**
 * Re-time (@p parsed, @p dlsa) twice — once priced by the analytical
 * backend, once with per-tensor seconds from the banked model's
 * trace replay of the DLSA-ordered transaction stream — and report
 * the latency gap. Pure function of its arguments (deterministic
 * across runs and thread counts); the prices @p parsed carries and
 * @p hw's own memory_model pointer are ignored, both sides re-price a
 * copy.
 */
MemoryValidationResult ValidateMemoryTiming(const Graph &graph,
                                            const HardwareConfig &hw,
                                            const ParsedSchedule &parsed,
                                            const DlsaEncoding &dlsa,
                                            const BankedDramModel &model =
                                                BankedMemoryModel());

}  // namespace soma

#endif  // SOMA_SIM_MEMORY_VALIDATION_H

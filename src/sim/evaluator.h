/**
 * @file
 * The accurate evaluator (Sec. V-D): given an LFA parse and a DLSA, plays
 * out the two serial resources — the DRAM channel in DRAM Tensor Order
 * and the core array in tile order — under the paper's start conditions,
 * checks the GBUF budget, and aggregates latency/energy/utilization.
 */
#ifndef SOMA_SIM_EVALUATOR_H
#define SOMA_SIM_EVALUATOR_H

#include "hw/hardware.h"
#include "notation/parser.h"
#include "sim/report.h"
#include "workload/graph.h"

namespace soma {

/**
 * Evaluate a complete scheme.
 *
 * @param hw supplies the DRAM energy per byte and the peak throughput;
 *        every duration comes from @p parsed, priced for the hardware
 *        it was parsed for.
 * @param buffer_budget GBUF bytes available to the scheme; pass
 *        hw.gbuf_bytes for hardware-constrained evaluation or a smaller
 *        stage budget (Buffer Allocator).
 * @param total_ops utilization numerator; pass graph.TotalOps().
 */
EvalReport EvaluateSchedule(const Graph &graph, const HardwareConfig &hw,
                            const ParsedSchedule &parsed,
                            const DlsaEncoding &dlsa, Bytes buffer_budget,
                            Ops total_ops);

/**
 * Peak GBUF occupancy (bytes) over tile slots for a scheme — the quantity
 * the Buffer Allocator budgets. Cheaper than a full evaluation.
 */
Bytes PeakBufferUsage(const ParsedSchedule &parsed, const DlsaEncoding &dlsa);

}  // namespace soma

#endif  // SOMA_SIM_EVALUATOR_H

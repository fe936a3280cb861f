/**
 * @file
 * Evaluation results: latency, energy split, utilizations, buffer trace
 * statistics and per-event timings, plus the execution-graph renderer
 * used for the Fig. 8 case study.
 */
#ifndef SOMA_SIM_REPORT_H
#define SOMA_SIM_REPORT_H

#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"
#include "notation/parser.h"

namespace soma {

/** Start/finish of one scheduled event (seconds from batch start). */
struct EventTiming {
    double start = 0.0;
    double finish = 0.0;
};

/**
 * Full evaluation of one scheduling scheme on one hardware config.
 */
struct EvalReport {
    bool valid = false;
    std::string why_invalid;

    double latency = std::numeric_limits<double>::infinity();
    double core_energy_j = 0.0;
    double dram_energy_j = 0.0;
    double EnergyJ() const { return core_energy_j + dram_energy_j; }

    double compute_busy = 0.0;  ///< sum of tile compute seconds
    double dram_busy = 0.0;     ///< sum of DRAM tensor transfer seconds

    double compute_util = 0.0;  ///< Util(latency), paper Fig. 6 definition
    double dram_util = 0.0;     ///< dram_busy / latency
    double theory_max_util = 0.0;  ///< Util(max(compute_busy, dram_busy))

    Bytes peak_buffer = 0;
    double avg_buffer = 0.0;    ///< compute-time-weighted buffer bytes
    Bytes dram_bytes = 0;

    int num_tiles = 0;
    int num_tensors = 0;
    int num_flgs = 0;
    int num_lgs = 0;

    std::vector<EventTiming> tile_times;    ///< indexed like tiles
    std::vector<EventTiming> tensor_times;  ///< indexed like tensors

    /** The paper's optimization objective Energy^n x Delay^m. */
    double Cost(double n = 1.0, double m = 1.0) const;
};

/** Energy^n x Delay^m of a valid schedule: the one objective formula
 *  behind EvalReport::Cost and EvalContext::PriceCanonical. */
double ObjectiveCost(double energy_j, double latency, double n, double m);

/**
 * Render the DRAM / COMPUTE / BUFFER execution graph (Fig. 8 style) as
 * text: one row per tile with its layer, start/stall, and the DRAM
 * tensors in flight.
 */
void PrintExecutionGraph(std::ostream &os, const Graph &graph,
                         const ParsedSchedule &parsed,
                         const DlsaEncoding &dlsa, const EvalReport &report,
                         int max_rows = 200);

}  // namespace soma

#endif  // SOMA_SIM_REPORT_H

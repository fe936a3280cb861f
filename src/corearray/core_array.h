/**
 * @file
 * Core Array Scheduler & Evaluator.
 *
 * For each computing tile (ifmaps/weights already in GBUF, ofmaps written
 * back to GBUF) this module searches how to divide the tile into
 * sub-tiles across cores — output-channel parallelism vs spatial
 * parallelism — and evaluates cycles and energy of the best mapping,
 * including GBUF<->L0 traffic. This is the "classic scheduler and
 * evaluator" role the paper delegates to Timeloop/MAESTRO-style models
 * (Sec. V-D).
 */
#ifndef SOMA_COREARRAY_CORE_ARRAY_H
#define SOMA_COREARRAY_CORE_ARRAY_H

#include "hw/hardware.h"
#include "tiling/tiler.h"
#include "workload/graph.h"

namespace soma {

/** Cost of computing one tile on the core array. */
struct TileCost {
    double seconds = 0.0;    ///< compute time of the tile
    double energy_pj = 0.0;  ///< MAC + vector + L0 + GBUF energy
    Ops ops = 0;             ///< ops actually executed (incl. halo redo)
    Bytes gbuf_traffic = 0;  ///< bytes moved between GBUF and L0s

    bool operator==(const TileCost &o) const
    {
        return seconds == o.seconds && energy_pj == o.energy_pj &&
               ops == o.ops && gbuf_traffic == o.gbuf_traffic;
    }
    bool operator!=(const TileCost &o) const { return !(*this == o); }
};

/**
 * Analytical per-tile mapper. Stateless: a const function of (graph,
 * hardware), so one evaluator serves every search chain of a stage
 * concurrently. The parser caches the costs it derives per fused group,
 * in ascending layer-id order (ParseScratch::group_memo).
 */
class CoreArrayEvaluator {
  public:
    CoreArrayEvaluator(const Graph &graph, const HardwareConfig &hw);

    /** Cost of computing @p region of @p layer's ofmap. Empty regions
     *  cost zero. */
    TileCost Evaluate(LayerId layer, const Region &region) const;

    /** Fixed per-tile launch overhead in cycles (pipeline fill/drain). */
    static constexpr Cycles kTileOverheadCycles = 500;

    const HardwareConfig &hw() const { return hw_; }
    const Graph &graph() const { return graph_; }

  private:
    TileCost MatrixCost(const Layer &layer, const Region &region,
                        Bytes input_bytes) const;
    TileCost VectorCost(const Layer &layer, const Region &region,
                        Bytes input_bytes) const;

    /** Total bytes this tile reads from all its inputs (halo included). */
    Bytes InputBytes(const Layer &layer, const Region &region) const;

    const Graph &graph_;
    HardwareConfig hw_;
};

}  // namespace soma

#endif  // SOMA_COREARRAY_CORE_ARRAY_H

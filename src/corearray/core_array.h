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
 * (Sec. V-D); results are memoized because SA re-evaluates identical
 * tile shapes millions of times.
 */
#ifndef SOMA_COREARRAY_CORE_ARRAY_H
#define SOMA_COREARRAY_CORE_ARRAY_H

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/thread_annotations.h"
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
 * Sharded read-mostly concurrent memo of tile costs, shared by every
 * CoreArrayEvaluator of one search (all SearchDriver chains warm one
 * memo instead of each starting cold) and — via the service layer's
 * WarmStateCache — across every request scheduling the same (graph,
 * hardware preset). Keys carry everything the cost computation reads —
 * (layer, batches, rows, cols, input bytes) — exactly, with no lossy
 * hashing and full equality on lookup, so a hit always returns the cost
 * the key deterministically computes to: results never depend on which
 * chain or request inserted an entry first.
 * Entries are never erased, so returned references stay valid for the
 * memo's lifetime.
 *
 * Cross-request sharing invariant: a TileCost depends on the core
 * array's compute-side parameters (cores, PE geometry, L0 sizes,
 * frequency, energy table) but NOT on HardwareConfig::gbuf_bytes or
 * dram_gbps — which is why WarmStateCache keys memos by hardware
 * *preset* and shares them across GBUF/DRAM DSE overrides. If a future
 * cost model reads either field, the warm-state key must grow them.
 */
class TileCostMemo {
  public:
    /** Exact memo key: a tile's position reaches the core array only
     *  through its input bytes (a border tile's halo is clipped), so
     *  tiles of one layer with equal extents and equal input bytes
     *  cost the same. */
    struct TileKey {
        std::int32_t layer = 0;
        std::int32_t batches = 0;
        std::int32_t rows = 0;
        std::int32_t cols = 0;
        Bytes input_bytes = 0;
        bool operator==(const TileKey &o) const
        {
            return layer == o.layer && batches == o.batches &&
                   rows == o.rows && cols == o.cols &&
                   input_bytes == o.input_bytes;
        }
        bool operator!=(const TileKey &o) const { return !(*this == o); }
    };

    static TileKey Key(LayerId layer, const Region &region,
                       Bytes input_bytes);

    /** The cost stored for @p key, or nullptr on a miss. */
    const TileCost *Find(const TileKey &key) const;

    /** Insert @p cost for @p key; returns the stored entry (the
     *  already-present one if another thread raced the insert — both
     *  computed the identical value). */
    const TileCost &Insert(const TileKey &key, const TileCost &cost);

    /** Total entries over all shards (approximate under concurrency). */
    std::size_t size() const;

    /** Rough resident footprint in bytes, for the warm-state accounting
     *  surfaced by `somac sweep --stats`. */
    std::size_t ApproxBytes() const;

  private:
    struct KeyHash {
        std::size_t operator()(const TileKey &key) const;
    };
    static constexpr int kShards = 16;
    struct Shard {
        /** Lock order: leaf. Find takes it shared, Insert exclusive;
         *  cost computation always runs outside it. */
        mutable SharedMutex mutex;
        std::unordered_map<TileKey, TileCost, KeyHash> map
            SOMA_GUARDED_BY(mutex);
    };
    Shard &ShardFor(const TileKey &key) const;

    mutable std::array<Shard, kShards> shards_;
};

/**
 * Analytical per-tile mapper with memoization. Thread-safe: the memo is
 * a concurrent TileCostMemo that several evaluators (one per search
 * chain) can share; graph/hardware state is immutable after
 * construction.
 */
class CoreArrayEvaluator {
  public:
    /** Evaluator with its own fresh memo. */
    CoreArrayEvaluator(const Graph &graph, const HardwareConfig &hw);

    /** Evaluator sharing @p memo (e.g. the stage-wide memo all chains
     *  of a SearchDriver run warm together). */
    CoreArrayEvaluator(const Graph &graph, const HardwareConfig &hw,
                       std::shared_ptr<TileCostMemo> memo);

    /**
     * Cost of computing @p region of @p layer's ofmap. Empty regions
     * cost zero. The returned reference stays valid for the memo's
     * lifetime.
     */
    const TileCost &Evaluate(LayerId layer, const Region &region);

    /** Fixed per-tile launch overhead in cycles (pipeline fill/drain). */
    static constexpr Cycles kTileOverheadCycles = 500;

    const HardwareConfig &hw() const { return hw_; }
    const Graph &graph() const { return graph_; }

    /** The memo backing this evaluator — pass to sibling evaluators to
     *  share warm-up across chains. */
    const std::shared_ptr<TileCostMemo> &memo() const { return memo_; }

  private:
    TileCost Compute(const Layer &layer, const Region &region,
                     Bytes input_bytes) const;
    TileCost MatrixCost(const Layer &layer, const Region &region,
                        Bytes input_bytes) const;
    TileCost VectorCost(const Layer &layer, const Region &region,
                        Bytes input_bytes) const;

    /** Total bytes this tile reads from all its inputs (halo included). */
    Bytes InputBytes(const Layer &layer, const Region &region) const;

    const Graph &graph_;
    HardwareConfig hw_;
    std::shared_ptr<TileCostMemo> memo_;
};

}  // namespace soma

#endif  // SOMA_COREARRAY_CORE_ARRAY_H

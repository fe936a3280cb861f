/**
 * @file
 * TilingCache: a thread-safe memo of ComputeFlgTiling results.
 *
 * The LFA stage's SA loop re-parses a whole scheme per candidate, and
 * the dominant cost of each parse is the per-FLG backward halo
 * propagation (O(layers x tiles x consumers) region math). A mutation
 * touches at most two fused groups, so the tilings of every other group
 * are recomputed verbatim — this cache keys them by the group's
 * *sink-set signature* — (canonical member set, Tiling Number) — and
 * hands the stored result back as a shared immutable FlgTiling.
 *
 * Keys are member *sets*, not ordered sequences: an FLG's sink set (and
 * hence its split and per-layer regions) is a function of the member
 * set alone (see ComputeFlgTiling), so every dependency-legal interior
 * order of one group shares a single entry. Values remember the order
 * they were derived with; a hit under a different order returns the
 * stored tiling plus the permutation that indexes it in the caller's
 * order (counted in Stats::remaps). Keys carry the full sorted member
 * list (no lossy hashing); lookups take a shared lock, misses compute
 * outside the lock and publish under an exclusive one.
 *
 * One cache is shared by all SearchDriver chains of a search, across
 * the Buffer Allocator's outer iterations, and — via the service
 * layer's GraphCache — across every request scheduling the same
 * graph: ComputeFlgTiling is a pure function of (graph, members,
 * tiles), so a hit returns the same value no matter which chain or
 * request inserted it; sharing never perturbs per-seed determinism.
 *
 * Keys do not encode the graph, so a cache serves exactly one graph.
 * The service's GraphCache guarantees that by construction: each
 * cached graph entry owns its TilingCache, created and evicted with
 * it. Other callers that pass one in (ScheduleRequest::warm_state,
 * LfaStageOptions::tiling_cache) must keep it to one graph.
 */
#ifndef SOMA_TILING_TILING_CACHE_H
#define SOMA_TILING_TILING_CACHE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "tiling/tiler.h"

namespace soma {

/**
 * FNV-1a fold over a fused group's content key (layer sequence, tile
 * count) — the one hash behind TilingCache's shards and the parser's
 * group-memo signatures (both collision-check against the full key).
 * Order-sensitive over whatever sequence it is given: pass the sorted
 * member list for the canonical sink-set signature.
 */
std::uint64_t GroupKeyHash(const std::vector<LayerId> &layers, int tiles);

class TilingCache {
  public:
    /** Hit/miss counters since construction (clears reset them).
     *  `remaps` counts hits served under a different interior order
     *  than the stored derivation (viewed through a perm, not
     *  recomputed). */
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t remaps = 0;
    };

    /**
     * The tiling of @p flg_layers (in computing order) at @p tiles,
     * computed through ComputeFlgTiling on a miss. The result is
     * immutable and shared. On a hit whose stored derivation order
     * differs from @p flg_layers, it is the stored tiling *as derived*
     * and @p perm_out receives the dst->src view mapping (perm_out[i]
     * = stored index of flg_layers[i]), so the caller indexes
     * `regions[perm_out[i]]`. @p perm_out is cleared (identity) when
     * the stored order already matches, on a miss, and for invalid
     * tilings. Invalid tilings (infeasible tile counts) are cached too
     * — the SA walk re-proposes them often.
     */
    std::shared_ptr<const FlgTiling> GetView(
        const Graph &graph, const std::vector<LayerId> &flg_layers,
        int tiles, std::vector<std::size_t> *perm_out);

    Stats stats() const;
    std::size_t size() const;
    /** Rough resident footprint (keys + stored tilings) in bytes, for
     *  the warm-state accounting surfaced by `somac sweep --stats`. */
    std::size_t ApproxBytes() const;

    /** Entry cap per shard; beyond it the shard is dropped wholesale
     *  (values are pure, so re-computation is always safe). */
    static constexpr std::size_t kMaxEntriesPerShard = 1 << 12;

  private:
    /** Canonical sink-set key: sorted member set + Tiling Number. */
    struct Key {
        std::vector<LayerId> members;  ///< sorted ascending
        int tiles = 0;
        bool operator==(const Key &o) const
        {
            return tiles == o.tiles && members == o.members;
        }
    };
    struct KeyHash {
        std::size_t operator()(const Key &k) const;
    };
    /** Stored value: the tiling plus the order it was derived with
     *  (immutable after insert; hits under other orders get a perm). */
    struct Value {
        std::vector<LayerId> order;
        std::shared_ptr<const FlgTiling> tiling;
    };
    static constexpr int kShards = 8;
    struct Shard {
        /** Lock order: leaf. Reads take it shared, publishes exclusive;
         *  ComputeFlgTiling always runs outside it. */
        mutable SharedMutex mutex;
        std::unordered_map<Key, Value, KeyHash> map
            SOMA_GUARDED_BY(mutex);
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> misses{0};
        std::atomic<std::uint64_t> remaps{0};
    };

    Shard &ShardFor(const Key &key) const;

    mutable std::array<Shard, kShards> shards_;
};

}  // namespace soma

#endif  // SOMA_TILING_TILING_CACHE_H

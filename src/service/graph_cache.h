/**
 * @file
 * GraphCache: the service's one record per workload. A thread-safe LRU
 * keyed by (model name, batch) whose entries hold the built graph and
 * that graph's TilingCache, created and evicted together:
 *
 *  - the graph, so a DSE sweep over one workload parses the model once
 *    instead of once per request. Registry builders are deterministic,
 *    so a cached graph is content-identical to a freshly built one and
 *    results computed against it are bit-identical;
 *  - the TilingCache, so a result-cache-cold request (new seed,
 *    profile, scheduler, hardware preset or GBUF/DRAM point over an
 *    already-seen workload) starts from the fused-group tilings every
 *    earlier request over the graph derived. Tilings are hardware-free,
 *    so one cache warms every hardware point of a workload, and the
 *    cache holds content-addressed pure values: a warm search produces
 *    the same bytes as a cold one (pinned by the service tests).
 *
 * Eviction drops the entry's shared_ptrs, so in-flight searches holding
 * a graph or its tilings keep using them safely while the next Get of
 * that workload rebuilds both.
 */
#ifndef SOMA_SERVICE_GRAPH_CACHE_H
#define SOMA_SERVICE_GRAPH_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "api/registry.h"
#include "common/thread_annotations.h"
#include "tiling/tiling_cache.h"
#include "workload/graph.h"

namespace soma {

class GraphCache {
  public:
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;  ///< each miss is one model build
        std::uint64_t evictions = 0;
    };

    /** Aggregate of the resident entries' TilingCaches (the
     *  `warm_state` section of `somac sweep --stats`). Evicted entries
     *  take their counts with them, so this is a residency-scoped
     *  view, not a lifetime total. */
    struct WarmStats {
        std::uint64_t tiling_hits = 0;
        std::uint64_t tiling_misses = 0;
        std::uint64_t tiling_remaps = 0;
        std::uint64_t tiling_entries = 0;
        std::uint64_t approx_bytes = 0;
    };

    /** @p capacity resident workloads (at least 1). Each holds a graph
     *  and the tilings derived for it, so the bound also caps resident
     *  tiling memory. */
    explicit GraphCache(std::size_t capacity = 32);

    /**
     * The graph for (@p model, @p batch), building it through
     * @p models on a miss; @p tilings, when given, receives the
     * entry's TilingCache. Returns nullptr with @p err set when the
     * registry does not know the model. Builds run under the cache
     * lock, so concurrent requests for one workload build it once and
     * share one TilingCache.
     */
    std::shared_ptr<const Graph> Get(
        const std::string &model, int batch, const ModelRegistry &models,
        std::string *err, std::shared_ptr<TilingCache> *tilings = nullptr)
        SOMA_EXCLUDES(mutex_);

    Stats stats() const SOMA_EXCLUDES(mutex_);
    WarmStats warm_stats() const SOMA_EXCLUDES(mutex_);

  private:
    struct Entry {
        std::string key;
        std::shared_ptr<const Graph> graph;
        std::shared_ptr<TilingCache> tilings;
    };

    const std::size_t capacity_;
    /** Lock order: taken before the resident TilingCache shard locks
     *  (warm_stats() aggregates them while holding it). Model builds
     *  run under it (by design, so one build serves concurrent
     *  requesters); neither builders nor TilingCaches call back into
     *  the cache. */
    mutable Mutex mutex_;
    std::list<Entry> lru_ SOMA_GUARDED_BY(mutex_);  ///< front = MRU
    std::unordered_map<std::string, std::list<Entry>::iterator> index_
        SOMA_GUARDED_BY(mutex_);
    Stats stats_ SOMA_GUARDED_BY(mutex_);
};

}  // namespace soma

#endif  // SOMA_SERVICE_GRAPH_CACHE_H

/**
 * @file
 * WarmStateCache: the service-level home of cross-request search
 * warm-up. Where the ResultCache warms whole *results* (a repeated
 * request costs nothing), this cache warms the *state inside* a search
 * (a result-cache-cold request — new seed, profile, scheduler,
 * hardware preset or GBUF/DRAM point over an already-seen workload —
 * skips re-deriving the fused-group tilings every earlier request
 * already derived).
 *
 * Keying — the entries composing to (graph fingerprint, group
 * signature, tiling number): TilingCache instances are keyed by graph
 * fingerprint alone; each instance then keys tilings by sink-set group
 * signature (canonical member set, Tiling Number). Tilings do not
 * depend on hardware, so one instance warms every hardware point of a
 * workload.
 *
 * Determinism contract: the cache holds content-addressed pure values,
 * so acquiring a warm cache can never change a result byte — pinned by
 * the service tests' warm-vs-cold byte-identity case. Like the
 * Graph/Result caches, fingerprints assume registry builders are
 * deterministic per name.
 *
 * Eviction: the map is LRU-bounded by Options::capacity; evicting drops
 * the shared_ptr, so in-flight searches holding a cache keep using it
 * safely while new acquires start cold.
 */
#ifndef SOMA_SERVICE_WARM_STATE_CACHE_H
#define SOMA_SERVICE_WARM_STATE_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/thread_annotations.h"
#include "tiling/tiling_cache.h"

namespace soma {

class WarmStateCache {
  public:
    struct Options {
        /** Max resident TilingCaches. 0 disables the cache: Acquire
         *  returns null and every search starts cold. */
        std::size_t capacity = 32;
    };

    /** Counters plus a footprint snapshot of the resident caches (the
     *  `warm_state` section of `somac sweep --stats`). `hits` counts
     *  Acquire calls served by a resident cache; `tiling_*`
     *  aggregate the resident TilingCaches' own counters — entries
     *  evicted wholesale take their counts with them, so these are a
     *  residency-scoped view, not a lifetime total. */
    struct Stats {
        std::uint64_t acquires = 0;
        std::uint64_t hits = 0;      ///< the graph's cache was resident
        std::uint64_t misses = 0;    ///< started cold
        std::uint64_t evictions = 0;
        std::uint64_t tiling_hits = 0;
        std::uint64_t tiling_misses = 0;
        std::uint64_t tiling_remaps = 0;
        std::uint64_t tiling_entries = 0;
        std::uint64_t approx_bytes = 0;
    };

    WarmStateCache() : WarmStateCache(Options{}) {}
    explicit WarmStateCache(const Options &options);

    /**
     * The TilingCache of @p graph_key, created empty on first sight.
     * Thread-safe; concurrent acquirers of one key share the same
     * instance. Null when disabled.
     */
    std::shared_ptr<TilingCache> Acquire(std::uint64_t graph_key)
        SOMA_EXCLUDES(mutex_);

    Stats stats() const SOMA_EXCLUDES(mutex_);
    /** Drops resident state and counters. */
    void Clear() SOMA_EXCLUDES(mutex_);

  private:
    template <typename V> struct Lru {
        struct Entry {
            std::uint64_t key;
            std::shared_ptr<V> value;
        };
        std::list<Entry> list;  ///< front = most recently used
        std::unordered_map<std::uint64_t,
                           typename std::list<Entry>::iterator>
            index;

        /** Returns {value, was_resident}; inserts a fresh V on miss and
         *  evicts the LRU tail beyond @p capacity (count reported via
         *  @p evictions). */
        std::pair<std::shared_ptr<V>, bool> Touch(std::uint64_t key,
                                                  std::size_t capacity,
                                                  std::uint64_t *evictions)
        {
            auto it = index.find(key);
            if (it != index.end()) {
                list.splice(list.begin(), list, it->second);
                return {list.front().value, true};
            }
            list.push_front(Entry{key, std::make_shared<V>()});
            index[key] = list.begin();
            while (list.size() > capacity) {
                index.erase(list.back().key);
                list.pop_back();
                ++*evictions;
            }
            return {list.front().value, false};
        }
    };

    const std::size_t capacity_;
    /** Lock order: taken before the resident TilingCache shard locks
     *  (stats() aggregates resident caches while holding it); those are
     *  leaves and never call back up. */
    mutable Mutex mutex_;
    Lru<TilingCache> tilings_ SOMA_GUARDED_BY(mutex_);  ///< by graph_key
    /** Counters only; the stats() snapshot fills the rest. */
    Stats stats_ SOMA_GUARDED_BY(mutex_);
};

}  // namespace soma

#endif  // SOMA_SERVICE_WARM_STATE_CACHE_H

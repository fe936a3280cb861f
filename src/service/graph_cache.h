/**
 * @file
 * GraphCache: the service's one record per workload. A thread-safe LRU
 * keyed by (model name, batch) whose entries hold the built graph, so a
 * DSE sweep over one workload parses the model once instead of once per
 * request. Registry builders are deterministic, so a cached graph is
 * content-identical to a freshly built one and results computed against
 * it are bit-identical.
 *
 * Eviction drops the entry's shared_ptr, so in-flight searches holding
 * a graph keep using it safely while the next Get of that workload
 * rebuilds it.
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
#include "workload/graph.h"

namespace soma {

class GraphCache {
  public:
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;  ///< each miss is one model build
        std::uint64_t evictions = 0;
    };

    /** @p capacity resident workloads (at least 1). */
    explicit GraphCache(std::size_t capacity = 32);

    /**
     * The graph for (@p model, @p batch), building it through
     * @p models on a miss. Returns nullptr with @p err set when the
     * registry does not know the model. Builds run under the cache
     * lock, so concurrent requests for one workload build it once.
     */
    std::shared_ptr<const Graph> Get(const std::string &model, int batch,
                                     const ModelRegistry &models,
                                     std::string *err) SOMA_EXCLUDES(mutex_);

    Stats stats() const SOMA_EXCLUDES(mutex_);

  private:
    struct Entry {
        std::string key;
        std::shared_ptr<const Graph> graph;
    };

    const std::size_t capacity_;
    /** Lock order: leaf. Model builds run under it (by design, so one
     *  build serves concurrent requesters); builders never call back
     *  into the cache. */
    mutable Mutex mutex_;
    std::list<Entry> lru_ SOMA_GUARDED_BY(mutex_);  ///< front = MRU
    std::unordered_map<std::string, std::list<Entry>::iterator> index_
        SOMA_GUARDED_BY(mutex_);
    Stats stats_ SOMA_GUARDED_BY(mutex_);
};

}  // namespace soma

#endif  // SOMA_SERVICE_GRAPH_CACHE_H

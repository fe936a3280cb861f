#include "service/graph_cache.h"

#include <utility>

namespace soma {

GraphCache::GraphCache(std::size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity)
{
}

std::shared_ptr<const Graph>
GraphCache::Get(const std::string &model, int batch,
                const ModelRegistry &models, std::string *err,
                std::shared_ptr<TilingCache> *tilings)
{
    const std::string key = model + "#" + std::to_string(batch);
    MutexLock lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++stats_.hits;
    } else {
        Graph built;
        if (!models.Build(model, batch, &built, err)) return nullptr;
        ++stats_.misses;
        lru_.push_front(Entry{key,
                              std::make_shared<const Graph>(std::move(built)),
                              std::make_shared<TilingCache>()});
        index_[key] = lru_.begin();
        while (lru_.size() > capacity_) {
            index_.erase(lru_.back().key);
            lru_.pop_back();
            ++stats_.evictions;
        }
    }
    const Entry &entry = lru_.front();
    if (tilings) *tilings = entry.tilings;
    return entry.graph;
}

GraphCache::Stats
GraphCache::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

GraphCache::WarmStats
GraphCache::warm_stats() const
{
    MutexLock lock(mutex_);
    WarmStats out;
    for (const Entry &entry : lru_) {
        const TilingCache::Stats ts = entry.tilings->stats();
        out.tiling_hits += ts.hits;
        out.tiling_misses += ts.misses;
        out.tiling_remaps += ts.remaps;
        out.tiling_entries += entry.tilings->size();
        out.approx_bytes += entry.tilings->ApproxBytes();
    }
    return out;
}

}  // namespace soma

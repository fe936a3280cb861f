#include "service/graph_cache.h"

#include <utility>

namespace soma {

GraphCache::GraphCache(std::size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity)
{
}

std::shared_ptr<const Graph>
GraphCache::Get(const std::string &model, int batch,
                const ModelRegistry &models, std::string *err)
{
    const std::string key = model + "#" + std::to_string(batch);
    MutexLock lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++stats_.hits;
        return lru_.front().graph;
    }
    Graph built;
    if (!models.Build(model, batch, &built, err)) return nullptr;
    ++stats_.misses;
    lru_.push_front(
        Entry{key, std::make_shared<const Graph>(std::move(built))});
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.evictions;
    }
    return lru_.front().graph;
}

GraphCache::Stats
GraphCache::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

}  // namespace soma

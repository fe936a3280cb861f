#include "service/warm_state_cache.h"

namespace soma {

WarmStateCache::WarmStateCache(const Options &options)
    : capacity_(options.capacity)
{
}

std::shared_ptr<TilingCache>
WarmStateCache::Acquire(std::uint64_t graph_key)
{
    if (capacity_ == 0) return nullptr;
    MutexLock lock(mutex_);
    ++stats_.acquires;
    auto [tilings, resident] =
        tilings_.Touch(graph_key, capacity_, &stats_.evictions);
    if (resident) {
        ++stats_.hits;
    } else {
        ++stats_.misses;
    }
    return std::move(tilings);
}

WarmStateCache::Stats
WarmStateCache::stats() const
{
    MutexLock lock(mutex_);
    Stats out = stats_;
    for (const auto &entry : tilings_.list) {
        const TilingCache::Stats ts = entry.value->stats();
        out.tiling_hits += ts.hits;
        out.tiling_misses += ts.misses;
        out.tiling_remaps += ts.remaps;
        out.tiling_entries += entry.value->size();
        out.approx_bytes += entry.value->ApproxBytes();
    }
    return out;
}

void
WarmStateCache::Clear()
{
    MutexLock lock(mutex_);
    tilings_.list.clear();
    tilings_.index.clear();
    stats_ = Stats{};
}

}  // namespace soma

#include "tiling/tiling_cache.h"

#include <algorithm>

#include "obs/prof.h"

namespace soma {

std::uint64_t
GroupKeyHash(const std::vector<LayerId> &layers, int tiles)
{
    // FNV-1a over the layer sequence, then the tile count.
    std::uint64_t h = 1469598103934665603ULL;
    for (LayerId id : layers) {
        h ^= static_cast<std::uint64_t>(id);
        h *= 1099511628211ULL;
    }
    h ^= static_cast<std::uint64_t>(tiles);
    h *= 1099511628211ULL;
    return h;
}

std::size_t
TilingCache::KeyHash::operator()(const Key &k) const
{
    return static_cast<std::size_t>(GroupKeyHash(k.members, k.tiles));
}

TilingCache::Shard &
TilingCache::ShardFor(const Key &key) const
{
    return shards_[KeyHash{}(key) % kShards];
}

std::shared_ptr<const FlgTiling>
TilingCache::GetView(const Graph &graph,
                     const std::vector<LayerId> &flg_layers, int tiles,
                     std::vector<std::size_t> *perm_out)
{
    perm_out->clear();
    Key key{flg_layers, tiles};
    std::sort(key.members.begin(), key.members.end());
    Shard &shard = ShardFor(key);
    {
        std::shared_ptr<const FlgTiling> tiling;
        std::vector<LayerId> stored_order;
        {
            SharedReaderLock lock(shard.mutex);
            auto it = shard.map.find(key);
            if (it != shard.map.end()) {
                shard.hits.fetch_add(1, std::memory_order_relaxed);
                if (it->second.order == flg_layers) return it->second.tiling;
                tiling = it->second.tiling;
                stored_order = it->second.order;
            }
        }
        if (tiling) {
            // Hand back the stored derivation plus the view mapping —
            // no re-indexed copy is materialized.
            shard.remaps.fetch_add(1, std::memory_order_relaxed);
            if (tiling->valid)
                OrderPermutation(stored_order, flg_layers, perm_out);
            return tiling;
        }
    }
    SOMA_PROF_SCOPE("tiling.derive");
    auto tiling = std::make_shared<const FlgTiling>(
        ComputeFlgTiling(graph, flg_layers, tiles));
    SharedMutexLock lock(shard.mutex);
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    if (shard.map.size() >= kMaxEntriesPerShard) shard.map.clear();
    // A racing thread may have published first; share whichever landed
    // (both are the same pure value), viewed through the perm when the
    // resident derivation order differs.
    auto [it, inserted] =
        shard.map.emplace(std::move(key), Value{flg_layers, tiling});
    if (!inserted && it->second.order != flg_layers) {
        if (it->second.tiling->valid)
            OrderPermutation(it->second.order, flg_layers, perm_out);
    }
    return it->second.tiling;
}

TilingCache::Stats
TilingCache::stats() const
{
    Stats out;
    for (const Shard &shard : shards_) {
        out.hits += shard.hits.load(std::memory_order_relaxed);
        out.misses += shard.misses.load(std::memory_order_relaxed);
        out.remaps += shard.remaps.load(std::memory_order_relaxed);
    }
    return out;
}

std::size_t
TilingCache::size() const
{
    std::size_t total = 0;
    for (const Shard &shard : shards_) {
        SharedReaderLock lock(shard.mutex);
        total += shard.map.size();
    }
    return total;
}

std::size_t
TilingCache::ApproxBytes() const
{
    std::size_t total = 0;
    for (const Shard &shard : shards_) {
        SharedReaderLock lock(shard.mutex);
        for (const auto &[key, value] : shard.map) {
            total += sizeof(key) + sizeof(value) +
                     (key.members.size() + value.order.size()) *
                         sizeof(LayerId) +
                     sizeof(FlgTiling);
            for (const auto &row : value.tiling->regions)
                total += sizeof(row) + row.size() * sizeof(Region);
        }
    }
    return total;
}

}  // namespace soma

#include "corearray/core_array.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/prof.h"

namespace soma {

namespace {

std::int64_t
CeilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

}  // namespace

TileCostMemo::TileKey
TileCostMemo::Key(LayerId layer, const Region &region, Bytes input_bytes)
{
    return TileKey{static_cast<std::int32_t>(layer), region.Batches(),
                   region.Rows(), region.Cols(), input_bytes};
}

std::size_t
TileCostMemo::KeyHash::operator()(const TileKey &key) const
{
    std::uint64_t z = (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(key.layer))
                       << 32) |
                      static_cast<std::uint32_t>(key.batches);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z ^= (static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(key.rows))
          << 32) |
         static_cast<std::uint32_t>(key.cols);
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= static_cast<std::uint64_t>(key.input_bytes);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
}

TileCostMemo::Shard &
TileCostMemo::ShardFor(const TileKey &key) const
{
    return shards_[KeyHash{}(key) & (kShards - 1)];
}

const TileCost *
TileCostMemo::Find(const TileKey &key) const
{
    Shard &shard = ShardFor(key);
    SharedReaderLock lock(shard.mutex);
    auto it = shard.map.find(key);
    return it == shard.map.end() ? nullptr : &it->second;
}

const TileCost &
TileCostMemo::Insert(const TileKey &key, const TileCost &cost)
{
    Shard &shard = ShardFor(key);
    SharedMutexLock lock(shard.mutex);
    return shard.map.emplace(key, cost).first->second;
}

std::size_t
TileCostMemo::size() const
{
    std::size_t total = 0;
    for (const Shard &shard : shards_) {
        SharedReaderLock lock(shard.mutex);
        total += shard.map.size();
    }
    return total;
}

std::size_t
TileCostMemo::ApproxBytes() const
{
    // Keys and values are flat structs; fold in a nominal per-node
    // overhead for the hash map's buckets and links.
    constexpr std::size_t kNodeOverhead = 2 * sizeof(void *);
    return size() * (sizeof(TileKey) + sizeof(TileCost) + kNodeOverhead);
}

CoreArrayEvaluator::CoreArrayEvaluator(const Graph &graph,
                                       const HardwareConfig &hw)
    : CoreArrayEvaluator(graph, hw, std::make_shared<TileCostMemo>())
{
}

CoreArrayEvaluator::CoreArrayEvaluator(const Graph &graph,
                                       const HardwareConfig &hw,
                                       std::shared_ptr<TileCostMemo> memo)
    : graph_(graph), hw_(hw), memo_(std::move(memo))
{
    assert(memo_);
}

const TileCost &
CoreArrayEvaluator::Evaluate(LayerId layer, const Region &region)
{
    const Layer &l = graph_.layer(layer);
    const Bytes input_bytes = region.Empty() ? 0 : InputBytes(l, region);
    const TileCostMemo::TileKey key =
        TileCostMemo::Key(layer, region, input_bytes);
    if (const TileCost *hit = memo_->Find(key)) return *hit;
    SOMA_PROF_SCOPE("tilecost.compute");
    return memo_->Insert(key, Compute(l, region, input_bytes));
}

Bytes
CoreArrayEvaluator::InputBytes(const Layer &layer, const Region &region) const
{
    Bytes total = 0;
    for (const InputRef &in : layer.inputs()) {
        int prod_c, prod_h, prod_w;
        if (in.producer == kNoLayer) {
            prod_c = in.ext.channels;
            prod_h = in.ext.height;
            prod_w = in.ext.width;
        } else {
            const Layer &p = graph_.layer(in.producer);
            prod_c = p.outChannels();
            prod_h = p.outHeight();
            prod_w = p.outWidth();
        }
        total += layer.InputBytes(in, region, prod_c, prod_h, prod_w);
    }
    return total;
}

TileCost
CoreArrayEvaluator::Compute(const Layer &layer, const Region &region,
                            Bytes input_bytes) const
{
    if (region.Empty()) return TileCost{};
    if (IsMatrixKind(layer.kind()))
        return MatrixCost(layer, region, input_bytes);
    return VectorCost(layer, region, input_bytes);
}

TileCost
CoreArrayEvaluator::MatrixCost(const Layer &layer, const Region &region,
                               Bytes input_bytes) const
{
    const std::int64_t sites = region.Sites();
    const std::int64_t k_dim = layer.outChannels();
    const std::int64_t red = std::max<Ops>(1, layer.opsPerElement() / 2);
    const Ops ops = layer.OpsForRegion(region);
    const Bytes out_bytes = layer.OutputBytes(region);

    // Search the core partition: k_cores cores split output channels,
    // the rest replicate weights and split spatial sites.
    Cycles best_cycles = INT64_MAX;
    Bytes best_traffic = INT64_MAX;
    for (int k_cores = 1; k_cores <= hw_.cores; ++k_cores) {
        if (hw_.cores % k_cores != 0) continue;
        int s_cores = hw_.cores / k_cores;
        std::int64_t k_per = CeilDiv(k_dim, k_cores);
        std::int64_t sites_per = CeilDiv(sites, s_cores);

        // Within a core the PE array maps output channels on its rows and
        // the reduction (C*R*S or GEMM-K) on its columns; sites stream
        // temporally.
        std::int64_t k_passes = CeilDiv(k_per, hw_.pe_rows_per_core);
        std::int64_t red_passes = CeilDiv(red, hw_.pe_cols_per_core);
        Cycles cycles = k_passes * red_passes * sites_per +
                        kTileOverheadCycles;

        // GBUF <-> L0 traffic: weights are replicated across spatial
        // cores; when a core's weight slice exceeds WL0 the activations
        // must be re-streamed once per weight chunk.
        Bytes w_slice = layer.weightBytes() / std::max(1, k_cores);
        std::int64_t reload =
            std::max<std::int64_t>(1, CeilDiv(w_slice, hw_.l0_weight_bytes));
        Bytes traffic = layer.weightBytes() * s_cores +
                        input_bytes * reload + out_bytes;
        if (layer.weightBytes() == 0) {
            // Activation-activation GEMM: the full (B-operand) input is
            // re-streamed when it overflows AL0.
            std::int64_t b_reload = std::max<std::int64_t>(
                1, CeilDiv(input_bytes, hw_.l0_act_bytes * hw_.cores));
            traffic = input_bytes * std::min<std::int64_t>(b_reload, 4) +
                      out_bytes;
        }

        if (cycles < best_cycles ||
            (cycles == best_cycles && traffic < best_traffic)) {
            best_cycles = cycles;
            best_traffic = traffic;
        }
    }

    TileCost cost;
    cost.ops = ops;
    cost.gbuf_traffic = best_traffic;
    cost.seconds = static_cast<double>(best_cycles) / (hw_.freq_ghz * 1e9);
    cost.energy_pj = static_cast<double>(ops) * hw_.energy.mac_pj_per_op +
                     static_cast<double>(ops) * hw_.energy.l0_pj_per_byte +
                     static_cast<double>(best_traffic) *
                         hw_.energy.gbuf_pj_per_byte;
    return cost;
}

TileCost
CoreArrayEvaluator::VectorCost(const Layer &layer, const Region &region,
                               Bytes input_bytes) const
{
    const Ops ops = layer.OpsForRegion(region);
    const Bytes out_bytes = layer.OutputBytes(region);
    double lanes = hw_.VectorOpsPerSecond() / (hw_.freq_ghz * 1e9);
    Cycles cycles =
        CeilDiv(ops, std::max<std::int64_t>(1,
                                            static_cast<std::int64_t>(lanes)))
        + kTileOverheadCycles;
    Bytes traffic = input_bytes + out_bytes;

    TileCost cost;
    cost.ops = ops;
    cost.gbuf_traffic = traffic;
    cost.seconds = static_cast<double>(cycles) / (hw_.freq_ghz * 1e9);
    cost.energy_pj =
        static_cast<double>(ops) * hw_.energy.vector_pj_per_op +
        static_cast<double>(traffic) * hw_.energy.gbuf_pj_per_byte;
    return cost;
}

}  // namespace soma

#include "tiling/tiler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

namespace soma {

std::optional<TileSplit>
ChooseTileSplit(int tiles, int batch, int min_h, int min_w)
{
    assert(tiles >= 1);
    TileSplit split;
    // Batch first: the largest divisor of tiles not exceeding the batch.
    for (int d = std::min(tiles, batch); d >= 1; --d) {
        if (tiles % d == 0) {
            split.batch = d;
            break;
        }
    }
    int rem = tiles / split.batch;
    int best_rows = -1, best_cols = -1;
    int best_score = INT32_MAX;
    for (int rows = 1; rows <= rem; ++rows) {
        if (rem % rows != 0) continue;
        int cols = rem / rows;
        if (rows > min_h || cols > min_w) continue;
        int score = std::abs(rows - cols) * 2 - (rows > cols ? 1 : 0);
        if (score < best_score) {
            best_score = score;
            best_rows = rows;
            best_cols = cols;
        }
    }
    if (best_rows < 0) return std::nullopt;
    split.rows = best_rows;
    split.cols = best_cols;
    return split;
}

Region
CanonicalSlice(const TileSplit &split, int index, int batch, int h, int w)
{
    assert(index >= 0 && index < split.Total());
    int ic = index % split.cols;
    int ir = (index / split.cols) % split.rows;
    int ib = index / (split.cols * split.rows);
    Region r;
    EvenSlice(batch, split.batch, ib, &r.b0, &r.b1);
    EvenSlice(h, split.rows, ir, &r.r0, &r.r1);
    EvenSlice(w, split.cols, ic, &r.c0, &r.c1);
    return r;
}

FlgTiling
ComputeFlgTiling(const Graph &graph, const std::vector<LayerId> &flg_layers,
                 int tiles)
{
    FlgTiling result;
    const int n = static_cast<int>(flg_layers.size());
    assert(n > 0);

    std::unordered_map<LayerId, int> index_of;
    for (int i = 0; i < n; ++i) index_of[flg_layers[i]] = i;

    // A layer is a sink if its ofmap leaves the FLG: it is a network
    // output, has a consumer outside the FLG, or has no consumers.
    std::vector<bool> is_sink(n, false);
    int min_h = INT32_MAX, min_w = INT32_MAX;
    for (int i = 0; i < n; ++i) {
        const Layer &l = graph.layer(flg_layers[i]);
        bool sink = l.isNetworkOutput();
        const auto &consumers = graph.Consumers(flg_layers[i]);
        if (consumers.empty()) sink = true;
        for (const Edge &e : consumers) {
            if (!index_of.count(e.consumer)) sink = true;
        }
        is_sink[i] = sink;
        if (sink) {
            min_h = std::min(min_h, l.outHeight());
            min_w = std::min(min_w, l.outWidth());
        }
    }
    assert(min_h != INT32_MAX && "an FLG always has at least one sink");

    auto split = ChooseTileSplit(tiles, graph.batch(), min_h, min_w);
    if (!split) return result;  // invalid
    result.split = *split;

    result.regions.assign(n, std::vector<Region>(tiles));
    // Backward pass: consumers (later indices) before producers.
    for (int i = n - 1; i >= 0; --i) {
        const LayerId id = flg_layers[i];
        const Layer &l = graph.layer(id);
        for (int t = 0; t < tiles; ++t) {
            Region req;
            if (is_sink[i]) {
                req = CanonicalSlice(*split, t, graph.batch(), l.outHeight(),
                                     l.outWidth());
            }
            for (const Edge &e : graph.Consumers(id)) {
                auto it = index_of.find(e.consumer);
                if (it == index_of.end()) continue;
                int ci = it->second;
                assert(ci > i && "computing order must respect deps");
                const Layer &cons = graph.layer(e.consumer);
                const InputRef &in = cons.inputs()[e.input_index];
                Region need = cons.RequiredInputRegion(
                    in, result.regions[ci][t], l.outHeight(), l.outWidth());
                req = Region::Union(req, need);
            }
            result.regions[i][t] = req;
        }
    }
    result.valid = true;
    return result;
}

void
OrderPermutation(const std::vector<LayerId> &src_order,
                 const std::vector<LayerId> &dst_order,
                 std::vector<std::size_t> *perm_out)
{
    assert(src_order.size() == dst_order.size());
    std::unordered_map<LayerId, std::size_t> src_index;
    src_index.reserve(src_order.size());
    for (std::size_t i = 0; i < src_order.size(); ++i)
        src_index[src_order[i]] = i;
    perm_out->resize(dst_order.size());
    for (std::size_t i = 0; i < dst_order.size(); ++i) {
        auto it = src_index.find(dst_order[i]);
        assert(it != src_index.end() && "dst_order must permute src_order");
        (*perm_out)[i] = it->second;
    }
}

int
HeuristicParallelTiles(const Graph &graph, const std::vector<LayerId> &layers,
                       const HardwareConfig &hw, int cap)
{
    // For each matrix layer, estimate how many cores must be fed with
    // distinct spatial sites (cores not already busy on output-channel
    // parallelism), then the finest granularity that still supplies
    // pe_cols sites to each of them.
    std::int64_t t_max = INT64_MAX;
    bool any_matrix = false;
    for (LayerId id : layers) {
        const Layer &l = graph.layer(id);
        if (!IsMatrixKind(l.kind())) continue;
        // Layers with no spatial extent (classifier FCs) are sequential
        // regardless of the tiling and do not drive the heuristic.
        if (l.outHeight() * l.outWidth() <= 1 && graph.batch() <= 1)
            continue;
        any_matrix = true;
        std::int64_t sites = static_cast<std::int64_t>(graph.batch()) *
                             l.outHeight() * l.outWidth();
        int k_cores = std::max(
            1, (l.outChannels() + hw.pe_rows_per_core - 1) /
                   hw.pe_rows_per_core);
        int spatial_cores = std::max(1, hw.cores / std::min(hw.cores,
                                                            k_cores));
        std::int64_t needed = static_cast<std::int64_t>(spatial_cores) *
                              hw.pe_cols_per_core;
        t_max = std::min(t_max, std::max<std::int64_t>(1, sites / needed));
    }
    if (!any_matrix) {
        // Vector-only group (eltwise/pool/activation): all cores split
        // spatially; without this fallback such a group would demand its
        // full fmaps at once.
        t_max = 1;
        for (LayerId id : layers) {
            const Layer &l = graph.layer(id);
            std::int64_t sites = static_cast<std::int64_t>(graph.batch()) *
                                 l.outHeight() * l.outWidth();
            std::int64_t needed = static_cast<std::int64_t>(hw.cores) *
                                  hw.pe_cols_per_core;
            t_max = std::max(t_max,
                             std::max<std::int64_t>(1, sites / needed));
        }
    }

    // Capacity guard: no per-tile fmap — produced or loaded — may demand
    // more than a quarter of the GBUF (a schedulability precondition any
    // real compiler enforces; giant attention-score fmaps and
    // large-batch KV-cache loads need it).
    std::int64_t t_min = 1;
    for (LayerId id : layers) {
        const Layer &l = graph.layer(id);
        Bytes fmap = l.PerSampleOutputBytes() * graph.batch();
        for (const InputRef &in : l.inputs()) {
            Bytes in_bytes = 0;
            if (in.producer == kNoLayer) {
                in_bytes = in.ext.PerSampleBytes(l.elemBytes()) *
                           graph.batch();
            } else if (in.pattern == AccessPattern::kFull) {
                in_bytes = graph.layer(in.producer).PerSampleOutputBytes() *
                           graph.batch();
            }
            fmap = std::max(fmap, in_bytes);
        }
        std::int64_t need = (4 * fmap + hw.gbuf_bytes - 1) / hw.gbuf_bytes;
        t_min = std::max(t_min, need);
    }

    // Floor to a power of two, clamp; the capacity guard wins ties.
    int t = 1;
    while (2LL * t <= t_max && 2 * t <= cap) t *= 2;
    while (t < t_min && 2 * t <= cap) t *= 2;
    return t;
}

}  // namespace soma

#include "corearray/core_array.h"

#include <algorithm>
#include <cmath>

namespace soma {

namespace {

std::int64_t
CeilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

}  // namespace

CoreArrayEvaluator::CoreArrayEvaluator(const Graph &graph,
                                       const HardwareConfig &hw)
    : graph_(graph), hw_(hw)
{
}

TileCost
CoreArrayEvaluator::Evaluate(LayerId layer, const Region &region) const
{
    if (region.Empty()) return TileCost{};
    const Layer &l = graph_.layer(layer);
    const Bytes input_bytes = InputBytes(l, region);
    if (IsMatrixKind(l.kind())) return MatrixCost(l, region, input_bytes);
    return VectorCost(l, region, input_bytes);
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

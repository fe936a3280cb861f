#include "sim/memory_validation.h"

#include <cmath>
#include <vector>

#include "sim/evaluator.h"

namespace soma {

MemoryValidationResult
ValidateMemoryTiming(const Graph &graph, const HardwareConfig &hw,
                     const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
                     const BankedDramModel &model)
{
    MemoryValidationResult out;

    const int D = parsed.NumTensors();
    if (static_cast<int>(dlsa.order.size()) != D) {
        out.error = "DLSA order size does not match the parse's tensors";
        return out;
    }

    // Both sides time a copy of the parse: whatever backend priced
    // @p parsed, it is re-priced under the analytical model here.
    HardwareConfig hw_analytical = hw;
    hw_analytical.memory_model = nullptr;
    ParsedSchedule priced = parsed;
    PriceDramTensors(hw_analytical, &priced);
    const Ops total_ops = graph.TotalOps();
    EvalReport analytical = EvaluateSchedule(
        graph, hw_analytical, priced, dlsa, hw.gbuf_bytes, total_ops);
    if (!analytical.valid) {
        out.error =
            "analytical re-evaluation invalid: " + analytical.why_invalid;
        return out;
    }
    out.analytical_latency = analytical.latency;

    // Home addresses are a property of the tensor (index order); the
    // transaction stream is the schedule's DRAM Tensor Order (DLSA
    // rank order) over those addresses.
    std::vector<Bytes> bytes_by_tensor(static_cast<size_t>(D));
    for (int j = 0; j < D; ++j) bytes_by_tensor[j] = parsed.tensors[j].bytes;
    std::vector<std::uint64_t> addresses;
    AssignRowAlignedAddresses(bytes_by_tensor.data(), D,
                              model.params().row_bytes, &addresses);

    std::vector<BankedTransfer> stream(static_cast<size_t>(D));
    for (int r = 0; r < D; ++r) {
        const int j = dlsa.order[r];
        stream[r].address = addresses[j];
        stream[r].bytes = parsed.tensors[j].bytes;
        stream[r].is_load = parsed.tensors[j].IsLoad();
    }

    std::vector<double> seconds_by_rank;
    model.ReplayTensorStream(hw, stream, &seconds_by_rank, &out.replay);

    // The replayed seconds re-enter the timeline as the copy's prices;
    // the channel is serial, so it is busy for their index-order sum.
    for (int r = 0; r < D; ++r)
        priced.tensors[dlsa.order[r]].seconds = seconds_by_rank[r];
    double busy = 0.0;
    for (const DramTensor &t : priced.tensors) busy += t.seconds;
    priced.dram_busy = busy;
    EvalReport banked = EvaluateSchedule(graph, hw, priced, dlsa,
                                         hw.gbuf_bytes, total_ops);
    if (!banked.valid) {
        out.error = "banked re-evaluation invalid: " + banked.why_invalid;
        return out;
    }
    out.banked_latency = banked.latency;

    if (!(out.analytical_latency > 0.0) ||
        !std::isfinite(out.analytical_latency)) {
        out.error = "analytical latency is not positive and finite";
        return out;
    }
    out.gap_pct =
        (out.banked_latency / out.analytical_latency - 1.0) * 100.0;
    out.ok = true;
    return out;
}

}  // namespace soma

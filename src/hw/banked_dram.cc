#include "hw/banked_dram.h"

#include <cassert>
#include <cmath>

#include "obs/prof.h"

namespace soma {

namespace {

constexpr double kNsToSeconds = 1e-9;

inline std::int64_t
CeilDiv(Bytes a, Bytes b)
{
    return (a + b - 1) / b;
}

}  // namespace

void
AssignRowAlignedAddresses(const Bytes *bytes, int count, Bytes row_bytes,
                          std::vector<std::uint64_t> *addresses)
{
    addresses->resize(count);
    std::uint64_t cursor = 0;
    for (int j = 0; j < count; ++j) {
        (*addresses)[j] = cursor;
        const std::uint64_t rows =
            bytes[j] > 0 ? (std::uint64_t)CeilDiv(bytes[j], row_bytes) : 0;
        cursor += rows * (std::uint64_t)row_bytes;
    }
}

const char *
BankedDramModel::description() const
{
    return "banked row-buffer channel: burst bus time at dram_gbps plus "
           "activate/precharge per row (validation adds cross-tensor "
           "state and read<->write turnaround)";
}

double
BankedDramModel::TransferSeconds(const HardwareConfig &hw, Bytes bytes) const
{
    // Fresh-bank closed form. Row-aligned layout means a transfer's
    // cost depends only on its byte count: every burst pays bus time
    // (peak bandwidth = the analytical ceiling), every row touched
    // pays an activate, and rows beyond the bank count wrap onto banks
    // whose buffer holds an earlier row of the same transfer — a
    // precharge on top of the activate. Matches ReplayTensorStream on
    // a single transfer from cold banks (pinned by tests).
    if (bytes <= 0) return 0.0;
    const double burst_s = hw.DramSeconds(params_.burst_bytes);
    const double rcd_s = params_.t_rcd_ns * kNsToSeconds;
    const double rp_s = params_.t_rp_ns * kNsToSeconds;
    const std::int64_t bursts = CeilDiv(bytes, params_.burst_bytes);
    const std::int64_t rows = CeilDiv(bytes, params_.row_bytes);
    const std::int64_t conflicts =
        rows > params_.banks ? rows - params_.banks : 0;
    return (double)bursts * burst_s + (double)rows * rcd_s +
           (double)conflicts * rp_s;
}

double
BankedDramModel::ChannelBusySeconds(const HardwareConfig &, Bytes,
                                    double total_seconds) const
{
    // One serial channel: busy time is the sum of the per-transfer
    // costs (summed by the caller in tensor-index order).
    return total_seconds;
}

void
BankedDramModel::ReplayTensorStream(const HardwareConfig &hw,
                                    const std::vector<BankedTransfer> &stream,
                                    std::vector<double> *seconds,
                                    BankedReplayStats *stats) const
{
    *stats = BankedReplayStats{};
    // All allocation happens before the profiled region: somalint
    // forbids heap traffic inside SOMA_PROF_SCOPE.
    seconds->assign(stream.size(), 0.0);
    std::vector<std::int64_t> open_row((size_t)params_.banks, -1);

    const double burst_s = hw.DramSeconds(params_.burst_bytes);
    const double rcd_s = params_.t_rcd_ns * kNsToSeconds;
    const double rp_s = params_.t_rp_ns * kNsToSeconds;
    const double turn_s = params_.t_turnaround_ns * kNsToSeconds;

    SOMA_PROF_SCOPE("eval.dram.replay");
    int last_dir = -1;  // -1 = none yet, 0 = write, 1 = read
    for (size_t i = 0; i < stream.size(); ++i) {
        const BankedTransfer &t = stream[i];
        if (t.bytes <= 0) continue;
        // Count events per transfer, then multiply — the same
        // arithmetic shape as the closed form, so a single transfer
        // replayed from cold banks reproduces TransferSeconds bit
        // for bit (an additive per-burst accumulation would drift by
        // ulps over the thousands of bursts in a large tensor).
        std::int64_t turns = 0, misses = 0, conflicts = 0;
        const int dir = t.is_load ? 1 : 0;
        if (last_dir >= 0 && dir != last_dir) {
            turns = 1;
            stats->turnarounds++;
        }
        last_dir = dir;
        const std::int64_t bursts = CeilDiv(t.bytes, params_.burst_bytes);
        for (std::int64_t k = 0; k < bursts; ++k) {
            const std::uint64_t addr =
                t.address + (std::uint64_t)(k * params_.burst_bytes);
            const std::int64_t global_row =
                (std::int64_t)(addr / (std::uint64_t)params_.row_bytes);
            const int bank = (int)(global_row % params_.banks);
            if (open_row[(size_t)bank] == global_row) {
                stats->row_hits++;
            } else if (open_row[(size_t)bank] < 0) {
                stats->row_misses++;
                ++misses;
                open_row[(size_t)bank] = global_row;
            } else {
                stats->row_conflicts++;
                ++conflicts;
                open_row[(size_t)bank] = global_row;
            }
            stats->transactions++;
        }
        const double busy = (double)bursts * burst_s +
                            (double)(misses + conflicts) * rcd_s +
                            (double)conflicts * rp_s +
                            (double)turns * turn_s;
        (*seconds)[i] = busy;
        stats->busy_seconds += busy;
    }
}

const BankedDramModel &
BankedMemoryModel()
{
    static const BankedDramModel model;
    return model;
}

}  // namespace soma

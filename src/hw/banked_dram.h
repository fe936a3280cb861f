/**
 * @file
 * Backend #2 of the MemoryModel seam: a banked row-buffer DRAM model.
 *
 * The channel is decomposed into N banks with one open-row buffer
 * each; data moves in fixed-size bursts whose bus time comes from the
 * same dram_gbps the analytical model uses, so the banked model's
 * *peak* bandwidth matches the analytical ceiling and every extra
 * second it reports is row-activate / precharge / turnaround overhead
 * the flat model ignores (the quantity `somac run --validate-memory`
 * measures).
 *
 * Address map: tensors are laid out contiguously, each aligned up to a
 * row boundary; consecutive rows interleave round-robin across banks
 * (global_row = addr / row_bytes, bank = global_row % banks). A
 * sequential tensor therefore streams row-sized chunks across all
 * banks before revisiting one — the layout a DNN weight/fmap blob
 * actually gets from a bump allocator.
 *
 * Two faces, one timing rule:
 *
 *  - MemoryModel (search path): per-tensor cost in *fresh-bank*
 *    isolation, closed form — a pure function of the byte count, so
 *    the seam contract (memory_model.h) holds and the parse prices
 *    every tensor with it while this backend steers the SA.
 *  - ReplayTensorStream (validation path): trace-driven replay of the
 *    full DRAM Tensor Order stream with bank state carried *across*
 *    tensors and read<->write bus turnaround — the history-dependent
 *    effects the per-tensor face cannot see. sim/memory_validation.h
 *    re-times a finished schedule with it.
 */
#ifndef SOMA_HW_BANKED_DRAM_H
#define SOMA_HW_BANKED_DRAM_H

#include <cstdint>
#include <vector>

#include "hw/memory_model.h"

namespace soma {

/** LPDDR4-class timing/geometry defaults (ns at the controller). */
struct BankedDramParams {
    int banks = 8;
    Bytes row_bytes = 2048;       ///< row-buffer size per bank
    Bytes burst_bytes = 64;       ///< one bus transaction
    double t_rcd_ns = 18.0;       ///< activate (row open) latency
    double t_rp_ns = 18.0;        ///< precharge before a conflicting open
    double t_turnaround_ns = 7.5; ///< read<->write bus direction change
};

/** One element of the validation replay's transaction stream: a tensor
 *  transfer at its assigned home address, in DLSA issue order. */
struct BankedTransfer {
    std::uint64_t address = 0;
    Bytes bytes = 0;
    bool is_load = true;  ///< DRAM read (loads) vs write (stores)
};

/** Counters of one ReplayTensorStream pass (the eval.dram.* metrics). */
struct BankedReplayStats {
    std::uint64_t transactions = 0;   ///< bursts issued
    std::uint64_t row_hits = 0;       ///< burst into the open row
    std::uint64_t row_misses = 0;     ///< activate on a closed bank
    std::uint64_t row_conflicts = 0;  ///< precharge + activate
    std::uint64_t turnarounds = 0;    ///< read<->write direction flips
    double busy_seconds = 0.0;        ///< total channel busy time
};

/** Contiguous row-aligned layout: tensor j's home address. Shared by
 *  the model's closed form and the validation replay so both faces
 *  describe one layout. */
void AssignRowAlignedAddresses(const Bytes *bytes, int count,
                               Bytes row_bytes,
                               std::vector<std::uint64_t> *addresses);

class BankedDramModel final : public MemoryModel {
  public:
    BankedDramModel() = default;
    explicit BankedDramModel(const BankedDramParams &params)
        : params_(params)
    {
    }

    const char *name() const override { return "banked"; }
    const char *description() const override;

    /** Fresh-bank closed form (pure in the byte count):
     *  bursts * burst_time + rows * t_rcd + conflicts * t_rp. */
    double TransferSeconds(const HardwareConfig &hw,
                           Bytes bytes) const override;

    /** The channel is serial: the sum of the per-transfer seconds. */
    double ChannelBusySeconds(const HardwareConfig &hw, Bytes total_bytes,
                              double total_seconds) const override;

    /**
     * Trace-driven replay of @p stream in order, burst by burst, with
     * bank row state carried across transfers and read<->write
     * turnaround between transactions. Writes each transfer's busy
     * seconds to @p seconds (same indexing as @p stream) and the
     * aggregate counters to @p stats. Deterministic: a pure function
     * of (hw, stream, params).
     */
    void ReplayTensorStream(const HardwareConfig &hw,
                            const std::vector<BankedTransfer> &stream,
                            std::vector<double> *seconds,
                            BankedReplayStats *stats) const;

    const BankedDramParams &params() const { return params_; }

  private:
    BankedDramParams params_;
};

/** The process-wide default-parameter instance behind the registry's
 *  "banked" entry. */
const BankedDramModel &BankedMemoryModel();

}  // namespace soma

#endif  // SOMA_HW_BANKED_DRAM_H

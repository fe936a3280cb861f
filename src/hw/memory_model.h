/**
 * @file
 * The DRAM-timing seam of the timeline evaluator: a MemoryModel turns
 * the per-tensor DRAM transfer list of a parsed schedule into
 * per-transfer seconds (and the channel-busy aggregate), so the
 * evaluator never hard-codes one bandwidth formula.
 *
 * Seam contract (see DESIGN.md "Memory timing backends"):
 *
 *  - FillTransferSeconds is a *pure function* of the transfer list and
 *    the hardware point: no cross-call state, no dependence on the
 *    DLSA order. That is what keeps every incremental-evaluation
 *    invariant intact — the per-tensor seconds stay constants of the
 *    parse, so delta resumption and the cross-check reference work
 *    unchanged no matter which backend filled the array.
 *  - The analytical backend reproduces HardwareConfig::DramSeconds
 *    bit for bit (same arithmetic, same order); a null seam resolves
 *    to it (MemoryModelOf), pinned by tests/test_memory_model.cc.
 *  - History-dependent effects (row-buffer state across tensors,
 *    read/write turnaround) deliberately do NOT fit this interface;
 *    they live in the banked backend's trace replay
 *    (banked_dram.h, sim/memory_validation.h), which re-times a
 *    *finished* schedule instead of steering the search.
 */
#ifndef SOMA_HW_MEMORY_MODEL_H
#define SOMA_HW_MEMORY_MODEL_H

#include <string>
#include <vector>

#include "common/types.h"
#include "hw/hardware.h"

namespace soma {

/**
 * The per-tensor DRAM transfer list, in tensor-index order (the parse's
 * canonical order, NOT the DLSA issue order). Pointer views into
 * caller-owned arrays.
 */
struct DramTransferList {
    const Bytes *bytes = nullptr;          ///< transfer sizes
    const unsigned char *is_load = nullptr;///< 1 = DRAM->GBUF read
    int count = 0;
};

/**
 * One pluggable DRAM timing backend. Implementations must be stateless
 * (const methods, no mutable members): one instance is shared by every
 * search thread.
 */
class MemoryModel {
  public:
    virtual ~MemoryModel() = default;

    /** Registry name ("analytical", "banked"). */
    virtual const char *name() const = 0;
    /** One-line description for `somac list memory-models`. */
    virtual const char *description() const = 0;

    /**
     * Seconds the DRAM channel is busy with each transfer, written to
     * @p seconds[0..count). Must be a pure, deterministic function of
     * (@p hw, @p transfers) — see the seam contract above.
     */
    virtual void FillTransferSeconds(const HardwareConfig &hw,
                                     const DramTransferList &transfers,
                                     std::vector<double> *seconds) const = 0;

    /**
     * Aggregate channel-busy seconds reported as EvalReport::dram_busy.
     * @p total_bytes is the summed transfer size; @p seconds the vector
     * FillTransferSeconds produced for the same list.
     */
    virtual double ChannelBusySeconds(
        const HardwareConfig &hw, Bytes total_bytes,
        const std::vector<double> &seconds) const = 0;
};

/**
 * Backend #1: the paper's flat-bandwidth model. Each transfer's
 * seconds are exactly HardwareConfig::DramSeconds(bytes) and
 * ChannelBusySeconds exactly DramSeconds(total_bytes).
 */
class AnalyticalDramModel final : public MemoryModel {
  public:
    const char *name() const override { return "analytical"; }
    const char *description() const override;
    void FillTransferSeconds(const HardwareConfig &hw,
                             const DramTransferList &transfers,
                             std::vector<double> *seconds) const override;
    double ChannelBusySeconds(
        const HardwareConfig &hw, Bytes total_bytes,
        const std::vector<double> &seconds) const override;
};

/** The process-wide analytical instance (the default backend a null
 *  HardwareConfig::memory_model resolves to). */
const MemoryModel &AnalyticalMemoryModel();

/** @p hw's DRAM timing backend: hw.memory_model, or the analytical
 *  model when that is null. The one place a null seam is resolved. */
const MemoryModel &MemoryModelOf(const HardwareConfig &hw);

/**
 * One transfer's channel seconds through @p hw's seam
 * (MemoryModelOf). Both builtin backends are element-wise
 * pure, so a single-transfer call equals that transfer's entry in a
 * full-list fill — the property the compiler VM cross-check relies on
 * to stay bitwise-consistent with the evaluator under any backend.
 */
double ModelTransferSeconds(const HardwareConfig &hw, Bytes bytes,
                            bool is_load);

/**
 * Name -> MemoryModel registry, mirroring the api-layer registries:
 * ordered registration, lookup failures list the registered names.
 * Registered models must outlive the registry (builtins are process-
 * wide statics).
 */
class MemoryModelRegistry {
  public:
    MemoryModelRegistry() = default;

    /** Registry pre-populated with "analytical" and "banked". */
    static MemoryModelRegistry WithBuiltins();

    void Register(const MemoryModel *model);

    bool Has(const std::string &name) const;
    std::vector<std::string> Names() const;  ///< registration order

    /** The model, or nullptr with @p err listing the registered
     *  names. */
    const MemoryModel *Find(const std::string &name,
                            std::string *err) const;

    /** All registered models, registration order (for `somac list`). */
    const std::vector<const MemoryModel *> &models() const
    {
        return models_;
    }

  private:
    std::vector<const MemoryModel *> models_;
};

}  // namespace soma

#endif  // SOMA_HW_MEMORY_MODEL_H

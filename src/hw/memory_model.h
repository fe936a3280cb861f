/**
 * @file
 * The DRAM-timing seam of the parse: a MemoryModel prices one DRAM
 * transfer at a time (and the channel-busy aggregate), so neither the
 * parse nor the timeline evaluator hard-codes one bandwidth formula.
 *
 * Seam contract (see DESIGN.md "Memory timing backends"):
 *
 *  - TransferSeconds is a *pure function* of the byte count and the
 *    hardware point: no cross-call state, no dependence on the DLSA
 *    order. The parse prices every tensor it emits with it
 *    (PriceDramTensors), so the seconds are constants of the parse and
 *    delta resumption, the cross-check reference and the compiler VM
 *    (which prices its transfers one by one) agree bit for bit no
 *    matter which backend priced them.
 *  - The analytical backend reproduces HardwareConfig::DramSeconds
 *    bit for bit (same arithmetic); a null seam resolves to it
 *    (MemoryModelOf), pinned by tests/test_memory_model.cc.
 *  - History-dependent effects (row-buffer state across tensors,
 *    read/write turnaround) deliberately do NOT fit this interface;
 *    they live in the banked backend's trace replay
 *    (banked_dram.h, sim/memory_validation.h), which re-times a
 *    *finished* schedule instead of steering the search.
 */
#ifndef SOMA_HW_MEMORY_MODEL_H
#define SOMA_HW_MEMORY_MODEL_H

#include <string>

#include "common/registry.h"
#include "common/types.h"
#include "hw/hardware.h"

namespace soma {

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
     * Seconds the DRAM channel is busy moving @p bytes. Must be a pure,
     * deterministic function of (@p hw, @p bytes) — see the seam
     * contract above.
     */
    virtual double TransferSeconds(const HardwareConfig &hw,
                                   Bytes bytes) const = 0;

    /**
     * Aggregate channel-busy seconds reported as EvalReport::dram_busy.
     * @p total_bytes and @p total_seconds are the transfers' summed
     * bytes and TransferSeconds, in tensor-index order.
     */
    virtual double ChannelBusySeconds(const HardwareConfig &hw,
                                      Bytes total_bytes,
                                      double total_seconds) const = 0;
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
    double TransferSeconds(const HardwareConfig &hw,
                           Bytes bytes) const override;
    double ChannelBusySeconds(const HardwareConfig &hw, Bytes total_bytes,
                              double total_seconds) const override;
};

/** The process-wide analytical instance (the default backend a null
 *  HardwareConfig::memory_model resolves to). */
const MemoryModel &AnalyticalMemoryModel();

/** @p hw's DRAM timing backend: hw.memory_model, or the analytical
 *  model when that is null. The one place a null seam is resolved. */
const MemoryModel &MemoryModelOf(const HardwareConfig &hw);

/**
 * Name -> MemoryModel registry, one Registry (common/registry.h) like
 * the api-layer registries. Registered models must outlive the
 * registry (builtins are process-wide statics).
 */
class MemoryModelRegistry : public Registry<const MemoryModel *> {
  public:
    MemoryModelRegistry() : Registry("memory model") {}

    /** Registry pre-populated with "analytical" and "banked". */
    static MemoryModelRegistry WithBuiltins();

    /** The model, or nullptr with @p err listing the registered
     *  names. */
    const MemoryModel *Find(const std::string &name,
                            std::string *err) const
    {
        const MemoryModel *const *model = Registry::Find(name, err);
        return model ? *model : nullptr;
    }
};

}  // namespace soma

#endif  // SOMA_HW_MEMORY_MODEL_H

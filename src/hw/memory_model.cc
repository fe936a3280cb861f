#include "hw/memory_model.h"

#include "hw/banked_dram.h"

namespace soma {

const char *
AnalyticalDramModel::description() const
{
    return "flat-bandwidth channel: seconds = bytes / dram_gbps "
           "(the paper's model; the default)";
}

double
AnalyticalDramModel::TransferSeconds(const HardwareConfig &hw,
                                     Bytes bytes) const
{
    return hw.DramSeconds(bytes);
}

double
AnalyticalDramModel::ChannelBusySeconds(const HardwareConfig &hw,
                                        Bytes total_bytes, double) const
{
    // One division over the summed bytes — NOT the sum of the
    // per-transfer seconds, which would differ in the last ulps.
    return hw.DramSeconds(total_bytes);
}

const MemoryModel &
AnalyticalMemoryModel()
{
    static const AnalyticalDramModel model;
    return model;
}

const MemoryModel &
MemoryModelOf(const HardwareConfig &hw)
{
    return hw.memory_model ? *hw.memory_model : AnalyticalMemoryModel();
}

MemoryModelRegistry
MemoryModelRegistry::WithBuiltins()
{
    MemoryModelRegistry reg;
    const MemoryModel *const builtins[] = {&AnalyticalMemoryModel(),
                                           &BankedMemoryModel()};
    for (const MemoryModel *m : builtins) reg.Register(m->name(), m);
    return reg;
}

}  // namespace soma

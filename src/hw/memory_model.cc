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
    reg.Register(&AnalyticalMemoryModel());
    reg.Register(&BankedMemoryModel());
    return reg;
}

void
MemoryModelRegistry::Register(const MemoryModel *model)
{
    for (auto &m : models_) {
        if (std::string(m->name()) == model->name()) {
            m = model;
            return;
        }
    }
    models_.push_back(model);
}

bool
MemoryModelRegistry::Has(const std::string &name) const
{
    for (const MemoryModel *m : models_)
        if (name == m->name()) return true;
    return false;
}

std::vector<std::string>
MemoryModelRegistry::Names() const
{
    std::vector<std::string> names;
    names.reserve(models_.size());
    for (const MemoryModel *m : models_) names.push_back(m->name());
    return names;
}

const MemoryModel *
MemoryModelRegistry::Find(const std::string &name, std::string *err) const
{
    for (const MemoryModel *m : models_)
        if (name == m->name()) return m;
    if (err) {
        std::string joined;
        for (const MemoryModel *m : models_) {
            if (!joined.empty()) joined += ", ";
            joined += m->name();
        }
        *err = "unknown memory model \"" + name + "\" (registered: " +
               joined + ")";
    }
    return nullptr;
}

}  // namespace soma

#include "compiler/vm.h"

#include <algorithm>

#include "hw/memory_model.h"

namespace soma {

VmResult
ExecuteProgram(const Program &prog,
               const std::vector<double> &compute_seconds,
               const HardwareConfig &hw)
{
    VmResult res;
    if (!prog.DepsAcyclic()) {
        res.error = "program has forward or invalid dependencies";
        return res;
    }
    const int n = static_cast<int>(prog.instructions.size());
    res.events.resize(n);

    const MemoryModel &model = MemoryModelOf(hw);
    double dram_free = 0.0;
    double core_free = 0.0;
    int compute_ordinal = 0;

    for (int i = 0; i < n; ++i) {
        const Instruction &instr = prog.instructions[i];
        double ready = 0.0;
        for (int d : instr.deps)
            ready = std::max(ready, res.events[d].finish);

        double duration;
        double *unit_free;
        if (instr.op == Opcode::kCompute) {
            if (compute_ordinal >=
                static_cast<int>(compute_seconds.size())) {
                res.error = "missing compute duration for " + instr.label;
                return res;
            }
            duration = compute_seconds[compute_ordinal++];
            unit_free = &core_free;
            res.core_busy += duration;
        } else {
            duration = model.TransferSeconds(hw, instr.bytes);
            unit_free = &dram_free;
            res.dram_busy += duration;
        }

        double start = std::max(ready, *unit_free);
        double finish = start + duration;
        res.events[i] = VmEvent{start, finish};
        *unit_free = finish;
        res.makespan = std::max(res.makespan, finish);
    }
    if (compute_ordinal != static_cast<int>(compute_seconds.size())) {
        res.error = "unused compute durations";
        return res;
    }
    res.ok = true;
    return res;
}

VmResult
ExecuteIr(const IrModule &ir, const HardwareConfig &hw)
{
    Program prog = GenerateInstructions(ir);
    std::vector<double> seconds;
    seconds.reserve(ir.tiles.size());
    for (const IrTile &t : ir.tiles) seconds.push_back(t.seconds);
    return ExecuteProgram(prog, seconds, hw);
}

}  // namespace soma

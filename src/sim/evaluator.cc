#include "sim/evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "sim/eval_context.h"

namespace soma {

Bytes
PeakBufferUsage(const ParsedSchedule &parsed, const DlsaEncoding &dlsa)
{
    std::vector<Bytes> diff, usage;
    ComputeBufferBySlot(parsed, dlsa.free_point, &diff, &usage);
    Bytes peak = 0;
    for (Bytes b : usage) peak = std::max(peak, b);
    return peak;
}

double
ObjectiveCost(double energy_j, double latency, double n, double m)
{
    // Integer-ish exponents dominate in practice; std::pow is fine here
    // but called in the SA inner loop, so special-case n = m = 1.
    if (n == 1.0 && m == 1.0) return energy_j * latency;
    return std::pow(energy_j, n) * std::pow(latency, m);
}

double
EvalReport::Cost(double n, double m) const
{
    if (!valid) return std::numeric_limits<double>::infinity();
    return ObjectiveCost(EnergyJ(), latency, n, m);
}

EvalReport
EvaluateSchedule(const Graph &, const HardwareConfig &hw,
                 const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
                 Bytes buffer_budget, Ops total_ops)
{
    // Compatibility wrapper: the implementation lives in EvalContext so
    // the full and incremental paths share one timeline. Search loops
    // should hold a per-thread EvalContext instead of calling this.
    EvalContext ctx(hw, buffer_budget, total_ops);
    return ctx.Evaluate(parsed, dlsa);
}

}  // namespace soma

#include "search/sa.h"

#include <algorithm>
#include <cmath>

namespace soma {

double
SaTemperature(int iterations, int n)
{
    double frac = static_cast<double>(n) / std::max(1, iterations);
    return kSaInitialTemperature * (1.0 - frac) /
           (1.0 + kSaCoolingRate * frac);
}

void
AccumulateSaStats(SaStats *into, const SaStats &add)
{
    into->iterations += add.iterations;
    into->evaluated += add.evaluated;
    into->no_move += add.no_move;
    into->accepted += add.accepted;
    into->rejected += add.rejected;
    into->improved += add.improved;
    into->initial_cost = std::min(into->initial_cost, add.initial_cost);
    into->best_cost = std::min(into->best_cost, add.best_cost);
}

bool
SaAccept(double c, double c_new, double temperature, bool greedy, Rng &rng)
{
    if (std::isinf(c)) return std::isfinite(c_new);
    if (c_new <= c) return true;
    if (greedy || std::isinf(c_new) || temperature <= 0.0) return false;
    // p = exp((c - c') / (c * Tn)); c > 0 because costs are
    // energy x delay products of real schedules.
    double p = std::exp((c - c_new) / (c * temperature));
    return rng.UniformReal() < p;
}

}  // namespace soma

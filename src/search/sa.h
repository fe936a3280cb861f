/**
 * @file
 * The simulated-annealing math shared by both exploration stages and
 * the Cocco baseline (Sec. V-C): temperature schedule
 * Tn = T0 * (1 - n/N) / (1 + alpha * n/N), acceptance probability
 * p = exp((c - c') / (c * Tn)) for worse candidates, and the per-walk
 * counters. The annealing loop itself (RunSaWindow) lives with the
 * SearchDriver (search/driver.h), which interleaves windows of several
 * chains with best-state exchanges under one global schedule.
 */
#ifndef SOMA_SEARCH_SA_H
#define SOMA_SEARCH_SA_H

#include <limits>

#include "common/rng.h"

namespace soma {

/** Initial temperature T0 of every annealing schedule. */
constexpr double kSaInitialTemperature = 0.2;
/** Cooling rate alpha of every annealing schedule. */
constexpr double kSaCoolingRate = 4.0;
/** Fraction of trailing iterations that accept improvements only
 *  (the paper's post-deadline greedy phase). */
constexpr double kSaGreedyTail = 0.1;

/** Temperature at iteration @p n of an @p iterations-long schedule. */
double SaTemperature(int iterations, int n);

/** Whether to accept a move from cost @p c to cost @p c_new. */
bool SaAccept(double c, double c_new, double temperature, bool greedy,
              Rng &rng);

/**
 * Bookkeeping of an annealing walk. Every iteration of the budget is
 * accounted for: iterations == no_move + evaluated and
 * evaluated == accepted + rejected.
 */
struct SaStats {
    int iterations = 0;  ///< budget consumed (incl. failed mutations)
    int evaluated = 0;   ///< candidates priced (evaluated, or served
                         ///< by the chain's cost memo)
    int no_move = 0;     ///< mutations that produced no candidate
    int accepted = 0;    ///< evaluated and accepted
    int rejected = 0;    ///< evaluated and rejected
    int improved = 0;    ///< accepted and new best
    double initial_cost = std::numeric_limits<double>::infinity();
    double best_cost = std::numeric_limits<double>::infinity();
};

/**
 * Fold @p add into @p into: counters are summed, initial_cost and
 * best_cost keep the minimum (infinity-safe). Used by the SearchDriver
 * to aggregate per-chain stats and by the Buffer Allocator to aggregate
 * per-outer-iteration stage stats.
 */
void AccumulateSaStats(SaStats *into, const SaStats &add);

}  // namespace soma

#endif  // SOMA_SEARCH_SA_H

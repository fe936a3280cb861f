/**
 * @file
 * Deterministic random number generation used by the search engines.
 *
 * All stochastic components of SoMa (simulated annealing, RandWire graph
 * generation) draw from this wrapper so that experiments are reproducible
 * from a single seed, mirroring the per-configuration seeds of the
 * paper's artifact (`args.txt`).
 */
#ifndef SOMA_COMMON_RNG_H
#define SOMA_COMMON_RNG_H

#include <cstdint>
#include <random>
#include <vector>

namespace soma {

/**
 * A small deterministic RNG facade over std::mt19937_64.
 */
class Rng {
  public:
    explicit Rng(std::uint64_t seed = 0x5051cafeULL) : engine_(seed) {}

    /** Uniform integer in [lo, hi] (inclusive). Requires lo <= hi. */
    int UniformInt(int lo, int hi);

    /** Uniform 64-bit integer in [lo, hi] (inclusive). */
    std::int64_t UniformInt64(std::int64_t lo, std::int64_t hi);

    /** Uniform real in [0, 1). */
    double UniformReal();

    /** Bernoulli draw with probability p of returning true. */
    bool Flip(double p = 0.5);

    /**
     * Sample an index with probability proportional to non-negative
     * weights, given their running sums in index order:
     * @p cumulative[i] = weights[0] + ... + weights[i], so the last
     * entry is the total. One UniformReal draw, scaled by the total,
     * picks the first index whose running sum exceeds it. Returns
     * -1, without a draw, when the vector is empty or the total is not
     * positive.
     */
    int CumulativeWeightedIndex(const std::vector<double> &cumulative);

    /** Access the underlying engine (for std::shuffle etc.). */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

}  // namespace soma

#endif  // SOMA_COMMON_RNG_H

#include "common/rng.h"

#include <algorithm>
#include <cassert>

namespace soma {

int
Rng::UniformInt(int lo, int hi)
{
    assert(lo <= hi);
    std::uniform_int_distribution<int> dist(lo, hi);
    return dist(engine_);
}

std::int64_t
Rng::UniformInt64(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

double
Rng::UniformReal()
{
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    return dist(engine_);
}

bool
Rng::Flip(double p)
{
    return UniformReal() < p;
}

int
Rng::CumulativeWeightedIndex(const std::vector<double> &cumulative)
{
    if (cumulative.empty() || cumulative.back() <= 0.0) return -1;
    const double draw = UniformReal() * cumulative.back();
    // A draw rounded up to the total still picks the last index.
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end() - 1, draw);
    return static_cast<int>(it - cumulative.begin());
}

}  // namespace soma

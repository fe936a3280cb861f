#include "search/driver.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace soma {

namespace {

int
HardwareThreads()
{
    unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<int>(hc) : 1;
}

}  // namespace

int
ResolveDriverThreads(const SearchDriverOptions &opts)
{
    return opts.threads > 0 ? opts.threads : HardwareThreads();
}

std::uint64_t
DeriveChainSeed(std::uint64_t base, int chain)
{
    // SplitMix64 (Steele et al.): one increment step per chain id, then
    // the finalizer. Decorrelates chain streams even for base seeds
    // 1, 2, 3, ... as used by the artifact's per-configuration seeds.
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL *
                                 (static_cast<std::uint64_t>(chain) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
RunOnWorkers(int threads, int tasks, const std::function<void(int)> &fn)
{
    // Workers beyond the core count only add start-up cost, and a
    // request for a million threads could not start them: cap at the
    // cores.
    const int spawn = std::min({threads, tasks, HardwareThreads()});
    if (spawn <= 1) {
        for (int i = 0; i < tasks; ++i) fn(i);
        return;
    }
    std::atomic<int> next{0};
    auto worker = [&]() {
        for (;;) {
            int i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks) return;
            fn(i);
        }
    };
    std::vector<std::thread> team;
    team.reserve(spawn - 1);
    for (int t = 1; t < spawn; ++t) team.emplace_back(worker);
    worker();
    for (std::thread &t : team) t.join();
}

}  // namespace soma

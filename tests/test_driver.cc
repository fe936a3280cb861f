/**
 * @file
 * SearchDriver tests: worker-pool correctness, per-chain seed streams,
 * thread-count-independent determinism (generic, DLSA-stage and full
 * RunSoma level), exchange behaviour, and the SaStats budget accounting
 * contract (iterations == no_move + evaluated == budget).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "search/dlsa_heuristics.h"
#include "search/dlsa_stage.h"
#include "search/driver.h"
#include "search/lfa_stage.h"
#include "search/soma.h"
#include "sim/evaluator.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

TEST(Workers, EveryTaskRunsExactlyOnce)
{
    const int tasks = 100;
    std::vector<std::atomic<int>> hits(tasks);
    for (auto &h : hits) h = 0;
    RunOnWorkers(4, tasks, [&](int i) { ++hits[i]; });
    for (int i = 0; i < tasks; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(Workers, InlineWhenSingleThread)
{
    int sum = 0;  // no synchronization: must run inline
    RunOnWorkers(1, 10, [&](int i) { sum += i; });
    EXPECT_EQ(sum, 45);
}

TEST(ChainSeeds, DistinctAcrossChainsAndAdjacentBases)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t base = 1; base <= 8; ++base) {
        for (int c = 0; c < 8; ++c) {
            seen.insert(DeriveChainSeed(base, c));
        }
    }
    EXPECT_EQ(seen.size(), 64u);
}

ChainEnv<int>
ToyEnv()
{
    ChainEnv<int> env;
    env.mutate = [](const int &cur, int *next, Rng &rng) {
        *next = cur + (rng.Flip() ? 1 : -1) * rng.UniformInt(1, 20);
        return true;
    };
    env.evaluate = [](const int &s) { return std::abs(s - 42.0); };
    return env;
}

TEST(SearchDriver, SolvesToyProblemAndAggregatesStats)
{
    SaOptions sa;
    sa.iterations = 2000;
    SearchDriverOptions opts;
    opts.chains = 4;
    opts.threads = 2;
    DriverResult<int> res = RunSearchDriver<int>(
        500, std::abs(500 - 42.0), [](int) { return ToyEnv(); }, sa, opts,
        /*seed=*/9);
    EXPECT_LE(res.cost, 5.0);
    EXPECT_EQ(res.chain_stats.size(), 4u);
    EXPECT_EQ(res.stats.iterations, 4 * sa.iterations);
    EXPECT_EQ(res.stats.iterations,
              res.stats.no_move + res.stats.evaluated);
    EXPECT_EQ(res.stats.evaluated,
              res.stats.accepted + res.stats.rejected);
    EXPECT_EQ(res.stats.best_cost, res.cost);
    EXPECT_GE(res.winner_chain, 0);
    EXPECT_LT(res.winner_chain, 4);
}

TEST(SearchDriver, DeterministicAcrossThreadCounts)
{
    SaOptions sa;
    sa.iterations = 3000;
    for (int chains : {1, 3, 5}) {
        SearchDriverOptions a;
        a.chains = chains;
        a.threads = 1;
        SearchDriverOptions b = a;
        b.threads = 8;
        DriverResult<int> ra = RunSearchDriver<int>(
            700, std::abs(700 - 42.0), [](int) { return ToyEnv(); }, sa, a,
            11);
        DriverResult<int> rb = RunSearchDriver<int>(
            700, std::abs(700 - 42.0), [](int) { return ToyEnv(); }, sa, b,
            11);
        EXPECT_EQ(ra.cost, rb.cost) << chains;
        EXPECT_EQ(ra.state, rb.state) << chains;
        EXPECT_EQ(ra.winner_chain, rb.winner_chain) << chains;
        EXPECT_EQ(ra.stats.accepted, rb.stats.accepted) << chains;
    }
}

TEST(SearchDriver, BestNeverWorseThanInitial)
{
    // Mutations only make things worse: the reduction must return the
    // initial state for every chain count.
    ChainEnv<int> env;
    env.mutate = [](const int &cur, int *next, Rng &rng) {
        *next = cur + rng.UniformInt(1, 5);
        return true;
    };
    env.evaluate = [](const int &s) { return static_cast<double>(s); };
    SaOptions sa;
    sa.iterations = 300;
    SearchDriverOptions opts;
    opts.chains = 3;
    opts.threads = 3;
    DriverResult<int> res = RunSearchDriver<int>(
        10, 10.0, [&](int) { return env; }, sa, opts, 5);
    EXPECT_EQ(res.state, 10);
    EXPECT_EQ(res.cost, 10.0);
}

TEST(SaStats, FailedMutationsStillConsumeBudget)
{
    // Every third proposal fails: the iteration count must still equal
    // the configured budget, with the failures tallied separately.
    int calls = 0;
    std::function<bool(const int &, int *, Rng &)> mutate =
        [&calls](const int &cur, int *next, Rng &rng) {
            if (++calls % 3 == 0) return false;
            *next = cur + (rng.Flip() ? 1 : -1);
            return true;
        };
    std::function<double(const int &)> eval = [](const int &s) {
        return std::abs(s - 5.0);
    };
    SaOptions opts;
    opts.iterations = 900;
    Rng rng(3);
    int state = 50;
    double cost = 45.0;
    SaStats stats = RunSa<int>(&state, &cost, mutate, eval, opts, rng);
    EXPECT_EQ(stats.iterations, 900);
    EXPECT_EQ(stats.no_move, 300);
    EXPECT_EQ(stats.evaluated, 600);
    EXPECT_EQ(stats.evaluated, stats.accepted + stats.rejected);
}

Graph
MakeDriverNet()
{
    GraphBuilder b("drivernet", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 32, 32}, 32, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 32, 3, 1, 1);
    LayerId c3 = b.Conv("c3", c2, 64, 3, 2, 1);
    LayerId c4 = b.Conv("c4", c3, 64, 3, 1, 1);
    b.MarkOutput(c4);
    return b.Take();
}

TEST(DlsaStageDriver, DeterministicAcrossThreadCounts)
{
    Graph g = MakeDriverNet();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.tiling = {2};
    ParsedSchedule parsed = ParseLfa(g, lfa, ce);
    ASSERT_TRUE(parsed.valid);
    DlsaEncoding init = MakeDoubleBufferDlsa(parsed);

    DlsaStageOptions opts;
    opts.beta = 20;
    opts.max_iterations = 600;
    opts.driver.chains = 3;

    opts.driver.threads = 1;
    Rng r1(7);
    DlsaStageResult a =
        RunDlsaStage(g, hw, parsed, init, hw.gbuf_bytes, opts, r1);

    opts.driver.threads = 4;
    Rng r2(7);
    DlsaStageResult b =
        RunDlsaStage(g, hw, parsed, init, hw.gbuf_bytes, opts, r2);

    ASSERT_TRUE(a.report.valid);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.dlsa.order, b.dlsa.order);
    EXPECT_EQ(a.dlsa.free_point, b.dlsa.free_point);
    EXPECT_EQ(a.report.latency, b.report.latency);
}

TEST(LfaStageDriver, SharedMemoDeterministicAcrossThreadCounts)
{
    // Each LFA chain keeps its own group memo, a content-addressed
    // pure-value cache, so which chain runs on which thread — which
    // varies with thread scheduling — must never leak into the result.
    Graph g = MakeDriverNet();
    HardwareConfig hw = EdgeAccelerator();
    const CoreArrayEvaluator ce(g, hw);

    LfaStageOptions opts;
    opts.beta = 10;
    opts.max_iterations = 400;
    opts.driver.chains = 3;

    opts.driver.threads = 1;
    Rng r1(13);
    LfaStageResult a = RunLfaStage(g, hw, ce, hw.gbuf_bytes, opts, r1);

    opts.driver.threads = 4;
    Rng r2(13);
    LfaStageResult b = RunLfaStage(g, hw, ce, hw.gbuf_bytes, opts, r2);

    ASSERT_TRUE(a.report.valid);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.lfa.order, b.lfa.order);
    EXPECT_EQ(a.lfa.flc_cuts, b.lfa.flc_cuts);
    EXPECT_EQ(a.lfa.dram_cuts, b.lfa.dram_cuts);
    EXPECT_EQ(a.lfa.tiling, b.lfa.tiling);
    EXPECT_EQ(a.report.latency, b.report.latency);
}

TEST(RunSomaDriver, DeterministicAcrossThreadCounts)
{
    Graph g = MakeDriverNet();
    HardwareConfig hw = EdgeAccelerator();
    SomaOptions opts = QuickSomaOptions(21);
    opts.driver.chains = 2;

    opts.driver.threads = 1;
    SomaSearchResult a = RunSoma(g, hw, opts);
    opts.driver.threads = 3;
    SomaSearchResult b = RunSoma(g, hw, opts);

    ASSERT_TRUE(a.report.valid);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.lfa.order, b.lfa.order);
    EXPECT_EQ(a.lfa.tiling, b.lfa.tiling);
    EXPECT_EQ(a.dlsa.order, b.dlsa.order);
    EXPECT_EQ(a.dlsa.free_point, b.dlsa.free_point);
}

TEST(RunSomaDriver, MultiChainNoWorseThanSingleChain)
{
    // More independently seeded chains explore a superset of schedules
    // given the same per-chain budget; the reduction keeps the best.
    Graph g = MakeDriverNet();
    HardwareConfig hw = EdgeAccelerator();

    SomaOptions single = QuickSomaOptions(33);
    single.driver.chains = 1;
    SomaOptions multi = QuickSomaOptions(33);
    multi.driver.chains = 3;

    SomaSearchResult a = RunSoma(g, hw, single);
    SomaSearchResult b = RunSoma(g, hw, multi);
    ASSERT_TRUE(a.report.valid);
    ASSERT_TRUE(b.report.valid);
    // Not a strict guarantee per-seed (different Rng streams), but the
    // budgets here are generous enough that the multi-chain run should
    // never be dramatically worse.
    EXPECT_LE(b.cost, a.cost * 1.10);
}

}  // namespace
}  // namespace soma

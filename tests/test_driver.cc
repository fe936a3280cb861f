/**
 * @file
 * SearchDriver tests: worker-pool correctness and its core cap,
 * per-chain seed streams, thread-count-independent determinism
 * (generic, DLSA-stage and full RunSoma level), exchange behaviour,
 * the SaStats budget accounting contract
 * (iterations == no_move + evaluated == budget), and the chains' cost
 * memo (exact hits, eviction, key boundaries, verification).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <thread>

#include "search/dlsa_heuristics.h"
#include "search/dlsa_stage.h"
#include "search/driver.h"
#include "search/lfa_stage.h"
#include "search/soma.h"
#include "sim/evaluator.h"
#include "workload/graph_builder.h"
#include "workload/models.h"

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

TEST(Workers, NeverMoreThanTheCores)
{
    // A request may ask for any thread count; the pool must not start
    // more workers than the machine has cores. Each task sleeps so that
    // every started worker gets to claim one.
    const int tasks = 64;
    std::vector<std::thread::id> ran_on(tasks);
    RunOnWorkers(1000000, tasks, [&](int i) {
        ran_on[i] = std::this_thread::get_id();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
    const std::set<std::thread::id> workers(ran_on.begin(), ran_on.end());
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    EXPECT_LE(workers.size(), cores);
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
    const int iterations = 2000;
    SearchDriverOptions opts;
    opts.chains = 4;
    opts.threads = 2;
    DriverResult<int> res = RunSearchDriver<int>(
        500, std::abs(500 - 42.0), [](int) { return ToyEnv(); }, iterations,
        opts, /*seed=*/9);
    EXPECT_LE(res.cost, 5.0);
    EXPECT_EQ(res.chain_stats.size(), 4u);
    EXPECT_EQ(res.stats.iterations, 4 * iterations);
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
    const int iterations = 3000;
    for (int chains : {1, 3, 5}) {
        SearchDriverOptions a;
        a.chains = chains;
        a.threads = 1;
        SearchDriverOptions b = a;
        b.threads = 8;
        DriverResult<int> ra = RunSearchDriver<int>(
            700, std::abs(700 - 42.0), [](int) { return ToyEnv(); },
            iterations, a, 11);
        DriverResult<int> rb = RunSearchDriver<int>(
            700, std::abs(700 - 42.0), [](int) { return ToyEnv(); },
            iterations, b, 11);
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
    SearchDriverOptions opts;
    opts.chains = 3;
    opts.threads = 3;
    DriverResult<int> res = RunSearchDriver<int>(
        10, 10.0, [&](int) { return env; }, /*iterations=*/300, opts, 5);
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
    const int iterations = 900;
    Rng rng(3);
    int state = 50, best = 50;
    double cost = 45.0, best_cost = 45.0;
    SaStats stats;
    RunSaWindow<int>(&state, &cost, &best, &best_cost, mutate, eval,
                     iterations, SearchDriverOptions{}, rng, 0, iterations,
                     &stats);
    EXPECT_EQ(stats.iterations, 900);
    EXPECT_EQ(stats.no_move, 300);
    EXPECT_EQ(stats.evaluated, 600);
    EXPECT_EQ(stats.evaluated, stats.accepted + stats.rejected);
}

/** Key the memo with @p parts and price it through @p eval. */
template <typename Eval, typename... Parts>
double
PriceKey(ChainCostMemo &memo, bool verify, const Eval &eval,
         const Parts &...parts)
{
    memo.SetKey(parts...);
    return memo.Price(verify, eval);
}

TEST(ChainCostMemo, HitReturnsTheStoredCostWithoutEvaluating)
{
    ChainCostMemo memo;
    const std::vector<int> order = {3, 1, 2}, cuts = {1};
    const double cost = 0.1 + 0.2;  // no round number
    const double inf = std::numeric_limits<double>::infinity();
    int calls = 0;
    EXPECT_EQ(PriceKey(memo, false, [&] { ++calls; return cost; }, order,
                       cuts),
              cost);
    EXPECT_EQ(PriceKey(memo, false, [&] { ++calls; return inf; }, cuts,
                       order),
              inf);
    const auto never = [&] {
        ++calls;
        return -1.0;
    };
    const double hit = PriceKey(memo, false, never, order, cuts);
    EXPECT_EQ(std::memcmp(&hit, &cost, sizeof hit), 0);
    EXPECT_EQ(PriceKey(memo, false, never, cuts, order), inf);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(memo.hits(), 2);
}

TEST(ChainCostMemo, CollidingKeyEvictsAndTheOldKeyIsEvaluatedAgain)
{
    ChainCostMemo memo;
    const std::vector<int> a = {0};
    int a_calls = 0;
    const auto eval_a = [&] {
        ++a_calls;
        return 1.0;
    };
    PriceKey(memo, false, eval_a, a);
    // Some key among many shares a's slot in a direct-mapped table.
    const int tries = 64 * static_cast<int>(ChainCostMemo::kSlots);
    int evictor = -1;
    for (int i = 1; i <= tries && evictor < 0; ++i) {
        PriceKey(memo, false, [] { return 2.0; }, std::vector<int>{i});
        const int before = a_calls;
        EXPECT_EQ(PriceKey(memo, false, eval_a, a), 1.0);
        if (a_calls > before) evictor = i;
    }
    ASSERT_GT(evictor, 0) << "no key shared a's slot";
    EXPECT_EQ(a_calls, 2);
    // a took its slot back, so the evictor is evaluated again as well.
    int evictor_calls = 0;
    EXPECT_EQ(PriceKey(memo, false, [&] { ++evictor_calls; return 2.0; },
                       std::vector<int>{evictor}),
              2.0);
    EXPECT_EQ(evictor_calls, 1);
}

TEST(ChainCostMemo, HoldsAtMostKSlotsKeys)
{
    ChainCostMemo memo;
    const int keys = 4 * static_cast<int>(ChainCostMemo::kSlots);
    const auto price = [&](int i) {
        PriceKey(memo, false, [] { return 1.0; }, std::vector<int>{i});
    };
    for (int i = 0; i < keys; ++i) price(i);
    // Newest first: every key the first pass left in the memo hits,
    // and nothing else can.
    for (int i = keys - 1; i >= 0; --i) price(i);
    EXPECT_GT(memo.hits(), 0);
    EXPECT_LE(memo.hits(), static_cast<std::int64_t>(ChainCostMemo::kSlots));
}

TEST(ChainCostMemo, PartBoundariesKeepKeysApart)
{
    // flc_cuts {1,2}, dram_cuts {} and flc_cuts {1}, dram_cuts {2} hold
    // the same values; only the length prefixes tell them apart.
    ChainCostMemo memo;
    int calls = 0;
    const auto eval = [&] { return static_cast<double>(++calls); };
    using V = std::vector<int>;
    EXPECT_EQ(PriceKey(memo, false, eval, V{1, 2}, V{}), 1.0);
    EXPECT_EQ(PriceKey(memo, false, eval, V{1}, V{2}), 2.0);
    EXPECT_EQ(PriceKey(memo, false, eval, V{}, V{1, 2}), 3.0);
    EXPECT_EQ(PriceKey(memo, false, eval, V{1, 2}), 4.0);
    EXPECT_EQ(memo.hits(), 0);
    EXPECT_EQ(PriceKey(memo, false, eval, V{1}, V{2}), 2.0);
    EXPECT_EQ(memo.hits(), 1);
}

TEST(ChainCostMemo, VerifiedHitEvaluatesAgain)
{
    ChainCostMemo memo;
    const std::vector<int> key = {4, 2};
    int calls = 0;
    const auto eval = [&] {
        ++calls;
        return 7.5;
    };
    EXPECT_EQ(PriceKey(memo, true, eval, key), 7.5);
    EXPECT_EQ(PriceKey(memo, true, eval, key), 7.5);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(memo.hits(), 1);
}

TEST(ChainCostMemoDeathTest, VerifiedHitAbortsOnADifferentCost)
{
    const auto drifting = [] {
        ChainCostMemo memo;
        double cost = 1.0;
        for (int i = 0; i < 2; ++i)
            PriceKey(memo, true, [&] { return cost += 1.0; },
                     std::vector<int>{4, 2});
    };
    EXPECT_DEATH(drifting(), "chain cost memo");
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

    SomaOptions opts;
    opts.dlsa.beta = 20;
    opts.dlsa.max_iterations = 600;
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

    SomaOptions opts;
    opts.lfa.beta = 10;
    opts.lfa.max_iterations = 400;
    opts.driver.chains = 3;

    opts.driver.threads = 1;
    Rng r1(13);
    SearchResult a = RunLfaStage(g, hw, ce, hw.gbuf_bytes, opts, r1);

    opts.driver.threads = 4;
    Rng r2(13);
    SearchResult b = RunLfaStage(g, hw, ce, hw.gbuf_bytes, opts, r2);

    ASSERT_TRUE(a.report.valid);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.lfa.order, b.lfa.order);
    EXPECT_EQ(a.lfa.flc_cuts, b.lfa.flc_cuts);
    EXPECT_EQ(a.lfa.dram_cuts, b.lfa.dram_cuts);
    EXPECT_EQ(a.lfa.tiling, b.lfa.tiling);
    EXPECT_EQ(a.report.latency, b.report.latency);
}

TEST(LfaStageDriver, TracedStageReportsCostMemoHits)
{
    // The LFA operators undo one another, so a chain keeps proposing
    // candidates it has priced; the stage span sums the chains' hits.
    Graph g = BuildModelByName("gpt2s-decode", 1);
    HardwareConfig hw = EdgeAccelerator();
    const CoreArrayEvaluator ce(g, hw);
    obs::Tracer tracer;
    SomaOptions opts = SomaOptionsFor(SearchProfile::kDefault, 1);
    opts.driver.trace = &tracer;
    Rng rng(opts.seed);
    SearchResult res = RunLfaStage(g, hw, ce, hw.gbuf_bytes, opts, rng);
    ASSERT_TRUE(res.report.valid);

    const Json trace = tracer.ToJson();
    const Json *events = trace.Find("traceEvents");
    ASSERT_NE(events, nullptr);
    int stages = 0;
    for (const Json &e : events->array_items()) {
        if (e.Find("name")->AsString() != "lfa.stage") continue;
        ++stages;
        const Json *hits = e.Find("args")->Find("cost_memo_hits");
        ASSERT_NE(hits, nullptr);
        EXPECT_GT(hits->AsInt(), 0);
        EXPECT_LE(hits->AsInt(), res.stats.evaluated);
    }
    EXPECT_EQ(stages, 1);
}

TEST(RunSomaDriver, DeterministicAcrossThreadCounts)
{
    Graph g = MakeDriverNet();
    HardwareConfig hw = EdgeAccelerator();
    SomaOptions opts = SomaOptionsFor(SearchProfile::kQuick, 21);
    opts.driver.chains = 2;

    opts.driver.threads = 1;
    SearchResult a = RunSoma(g, hw, opts);
    opts.driver.threads = 3;
    SearchResult b = RunSoma(g, hw, opts);

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

    SomaOptions single = SomaOptionsFor(SearchProfile::kQuick, 33);
    single.driver.chains = 1;
    SomaOptions multi = SomaOptionsFor(SearchProfile::kQuick, 33);
    multi.driver.chains = 3;

    SearchResult a = RunSoma(g, hw, single);
    SearchResult b = RunSoma(g, hw, multi);
    ASSERT_TRUE(a.report.valid);
    ASSERT_TRUE(b.report.valid);
    // Not a strict guarantee per-seed (different Rng streams), but the
    // budgets here are generous enough that the multi-chain run should
    // never be dramatically worse.
    EXPECT_LE(b.cost, a.cost * 1.10);
}

}  // namespace
}  // namespace soma

/**
 * @file
 * Search engine tests: SA schedule/acceptance math, the annealing
 * window, LFA/DLSA operators and stages, and the buffer allocator.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "search/buffer_allocator.h"
#include "search/dlsa_heuristics.h"
#include "search/dlsa_stage.h"
#include "search/lfa_stage.h"
#include "search/driver.h"
#include "search/soma.h"
#include "sim/evaluator.h"
#include "workload/graph_builder.h"
#include "workload/models.h"

namespace soma {
namespace {

TEST(Sa, TemperatureSchedule)
{
    // T0 = 0.2 and alpha = 4: T(N/2) = 0.2 * 0.5 / (1 + 4 * 0.5).
    EXPECT_DOUBLE_EQ(SaTemperature(100, 0), 0.2);
    EXPECT_DOUBLE_EQ(SaTemperature(100, 50), 0.1 / 3.0);
    double prev = 1e9;
    for (int n = 0; n <= 100; n += 10) {
        double t = SaTemperature(100, n);
        EXPECT_LT(t, prev);
        prev = t;
    }
    EXPECT_NEAR(SaTemperature(100, 100), 0.0, 1e-12);
}

TEST(Sa, AcceptRules)
{
    Rng rng(5);
    // Improvements always accepted.
    EXPECT_TRUE(SaAccept(10.0, 9.0, 0.5, false, rng));
    EXPECT_TRUE(SaAccept(10.0, 10.0, 0.5, false, rng));
    // From an invalid state, any valid candidate is accepted.
    double inf = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(SaAccept(inf, 123.0, 0.5, false, rng));
    EXPECT_FALSE(SaAccept(inf, inf, 0.5, false, rng));
    // Invalid candidates are never accepted from a valid state.
    EXPECT_FALSE(SaAccept(10.0, inf, 0.5, false, rng));
    // Greedy tail rejects regressions.
    EXPECT_FALSE(SaAccept(10.0, 11.0, 0.5, true, rng));
    // Zero temperature rejects regressions.
    EXPECT_FALSE(SaAccept(10.0, 11.0, 0.0, false, rng));
}

TEST(Sa, WorseAcceptedWithPaperProbability)
{
    // p = exp((c - c') / (c * T)) with c=10, c'=11, T=0.5 -> e^-0.2.
    Rng rng(7);
    int accepted = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        if (SaAccept(10.0, 11.0, 0.5, false, rng)) ++accepted;
    }
    EXPECT_NEAR(accepted / static_cast<double>(trials), std::exp(-0.2),
                0.02);
}

TEST(Sa, GenericAnnealerSolvesToyProblem)
{
    // Minimize |x - 42| over integers with +-step mutations.
    int state = 500;
    double cost = std::abs(state - 42);
    std::function<bool(const int &, int *, Rng &)> mutate =
        [](const int &cur, int *next, Rng &rng) {
            *next = cur + (rng.Flip() ? 1 : -1) * rng.UniformInt(1, 20);
            return true;
        };
    std::function<double(const int &)> eval = [](const int &s) {
        return std::abs(s - 42.0);
    };
    const int iterations = 4000;
    Rng rng(3);
    int best = state;
    double best_cost = cost;
    SaStats stats;
    RunSaWindow<int>(&state, &cost, &best, &best_cost, mutate, eval,
                     iterations, SearchDriverOptions{}, rng, 0, iterations,
                     &stats);
    EXPECT_LE(best_cost, 5.0);
    EXPECT_LE(best_cost, cost);
    EXPECT_GT(stats.accepted, 0);
}

TEST(Sa, BestNeverWorseThanInitial)
{
    int state = 10;
    double cost = 10.0;
    std::function<bool(const int &, int *, Rng &)> mutate =
        [](const int &cur, int *next, Rng &rng) {
            *next = cur + rng.UniformInt(1, 5);  // only gets worse
            return true;
        };
    std::function<double(const int &)> eval = [](const int &s) {
        return static_cast<double>(s);
    };
    const int iterations = 200;
    Rng rng(4);
    int best = state;
    double best_cost = cost;
    SaStats stats;
    RunSaWindow<int>(&state, &cost, &best, &best_cost, mutate, eval,
                     iterations, SearchDriverOptions{}, rng, 0, iterations,
                     &stats);
    EXPECT_EQ(best, 10);
    EXPECT_EQ(best_cost, 10.0);
}

TEST(OrderMutation, PreservesValidity)
{
    Graph g = BuildInceptionResNetV1(1);  // wide DAG: real reordering room
    std::vector<LayerId> order = g.TopoOrder();
    Rng rng(11);
    int moved = 0;
    for (int i = 0; i < 500; ++i) {
        if (MutateOrderMoveLayer(g, &order, rng)) ++moved;
        ASSERT_TRUE(g.IsValidOrder(order)) << "after mutation " << i;
    }
    EXPECT_GT(moved, 100);  // the operator actually does something
}

TEST(OrderMutation, SingleLayerCannotMove)
{
    GraphBuilder b("one", 1);
    b.InputConv("c", ExtShape{3, 8, 8}, 8, 3, 1, 1);
    Graph g = b.Take();
    std::vector<LayerId> order = {0};
    Rng rng(1);
    EXPECT_FALSE(MutateOrderMoveLayer(g, &order, rng));
}

Graph
MakeSearchNet()
{
    GraphBuilder b("searchnet", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 32, 32}, 32, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 32, 3, 1, 1);
    LayerId add = b.Eltwise("add", {c1, c2});
    LayerId c3 = b.Conv("c3", add, 64, 3, 2, 1);
    LayerId c4 = b.Conv("c4", c3, 64, 3, 1, 1);
    LayerId gap = b.GlobalPool("gap", c4);
    LayerId fc = b.FcFull("fc", gap, 10);
    b.MarkOutput(fc);
    return b.Take();
}

TEST(LfaStage, InitialSolutionValidAndUnfused)
{
    Graph g = MakeSearchNet();
    HardwareConfig hw = EdgeAccelerator();
    LfaEncoding lfa = MakeInitialLfa(g, hw, 128);
    EXPECT_TRUE(lfa.StructurallyValid(g));
    EXPECT_EQ(lfa.NumFlgs(), g.NumLayers());
    EXPECT_EQ(lfa.NumLgs(), g.NumLayers());
}

TEST(LfaStage, ImprovesOverInitial)
{
    Graph g = MakeSearchNet();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    Rng rng(9);
    SomaOptions opts;
    opts.lfa.beta = 30;
    opts.lfa.max_iterations = 800;
    SearchResult res = RunLfaStage(g, hw, eval, hw.gbuf_bytes, opts, rng);
    ASSERT_TRUE(res.report.valid);
    EXPECT_LE(res.cost, res.stats.initial_cost);
    // Fusion should kick in on this small net: fewer LGs than layers.
    EXPECT_LT(res.report.num_lgs, g.NumLayers());
    EXPECT_LE(res.report.peak_buffer, hw.gbuf_bytes);
}

TEST(LfaStage, RespectsStageBudget)
{
    Graph g = MakeSearchNet();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    Rng rng(9);
    SomaOptions opts;
    opts.lfa.beta = 20;
    opts.lfa.max_iterations = 500;
    Bytes budget = hw.gbuf_bytes / 4;
    SearchResult res = RunLfaStage(g, hw, eval, budget, opts, rng);
    if (res.report.valid) {
        EXPECT_LE(res.report.peak_buffer, budget);
    }
}

TEST(DlsaStage, ImprovesOverDoubleBuffer)
{
    // A conv-only chain (the classifier head would force T=1) fused into
    // one LG with T=2: weight loads create stalls for stage 2 to remove.
    GraphBuilder b("chain", 1);
    LayerId x = b.InputConv("c0", ExtShape{3, 32, 32}, 64, 3, 1, 1);
    for (int i = 1; i < 6; ++i)
        x = b.Conv("c" + std::to_string(i), x, 64, 3, 1, 1);
    b.MarkOutput(x);
    Graph g = b.Take();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.tiling = {2};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    ASSERT_TRUE(p.valid);
    DlsaEncoding init = MakeDoubleBufferDlsa(p);
    double init_cost = EvaluateSchedule(g, hw, p, init, hw.gbuf_bytes,
                                        g.TotalOps()).Cost();

    Rng rng(13);
    SomaOptions opts;
    opts.dlsa.beta = 30;
    opts.dlsa.max_iterations = 1500;
    DlsaStageResult res = RunDlsaStage(g, hw, p, init, hw.gbuf_bytes, opts,
                                       rng);
    ASSERT_TRUE(res.report.valid);
    EXPECT_LE(res.cost, init_cost);
    EXPECT_TRUE(DlsaValid(p, res.dlsa));
}

TEST(BufferAllocator, ProducesValidBestScheme)
{
    Graph g = MakeSearchNet();
    HardwareConfig hw = EdgeAccelerator();
    SomaOptions opts;
    opts.lfa.beta = 20;
    opts.lfa.max_iterations = 400;
    opts.dlsa.beta = 10;
    opts.dlsa.max_iterations = 500;
    opts.alloc.max_iterations = 3;
    Rng rng(17);
    SearchResult res = RunBufferAllocatedSearch(g, hw, opts, rng);
    ASSERT_TRUE(res.report.valid);
    ASSERT_TRUE(res.stage1_report.valid);
    EXPECT_GT(res.outer_iterations, 0);
    // Stage 2 never loses to its own starting point.
    EXPECT_LE(res.report.Cost(), res.stage1_report.Cost() + 1e-12);
    EXPECT_LE(res.report.peak_buffer, hw.gbuf_bytes);
    EXPECT_TRUE(res.lfa.StructurallyValid(g));
}

TEST(BufferAllocator, DeterministicForSeed)
{
    Graph g = MakeSearchNet();
    HardwareConfig hw = EdgeAccelerator();
    SomaOptions opts = SomaOptionsFor(SearchProfile::kQuick, 21);
    SearchResult a = RunSoma(g, hw, opts);
    SearchResult b = RunSoma(g, hw, opts);
    ASSERT_TRUE(a.report.valid);
    EXPECT_DOUBLE_EQ(a.cost, b.cost);
    EXPECT_EQ(a.lfa.order, b.lfa.order);
    EXPECT_EQ(a.lfa.tiling, b.lfa.tiling);
}

TEST(DoubleBuffer, StartsOneTileEarly)
{
    Graph g = MakeSearchNet();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.tiling = {2};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    DlsaEncoding db = MakeDoubleBufferDlsa(p);
    for (int j = 0; j < p.NumTensors(); ++j) {
        const DramTensor &t = p.tensors[j];
        if (t.IsLoad()) {
            EXPECT_EQ(db.free_point[j],
                      std::max<TilePos>(0, t.first_use - 1));
        } else {
            EXPECT_EQ(db.free_point[j],
                      std::min<TilePos>(p.NumTiles(), t.first_use + 2));
        }
    }
    EXPECT_TRUE(DlsaValid(p, db));
}

}  // namespace
}  // namespace soma

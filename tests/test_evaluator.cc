/**
 * @file
 * Timeline evaluator tests: exact hand-computed schedules, prefetch
 * overlap, store-End stalls, deadlock detection, buffer budgeting, and
 * report invariants.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "corearray/core_array.h"
#include "search/dlsa_heuristics.h"
#include "sim/evaluator.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

constexpr double kEps = 1e-12;

Graph
MakeSingle()
{
    GraphBuilder b("one", 1);
    LayerId c = b.InputConv("X", ExtShape{8, 16, 16}, 8, 3, 1, 1);
    b.MarkOutput(c);
    return b.Take();
}

Graph
MakeChain(int layers, int channels = 16, int dim = 32)
{
    GraphBuilder b("chain", 1);
    LayerId prev = b.InputConv("L0", ExtShape{8, dim, dim}, channels, 3, 1,
                               1);
    for (int i = 1; i < layers; ++i) {
        prev = b.Conv("L" + std::to_string(i), prev, channels, 3, 1, 1);
    }
    b.MarkOutput(prev);
    return b.Take();
}

TEST(Evaluator, SingleLayerExactTimeline)
{
    Graph g = MakeSingle();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa = MakeUnfusedLfa(g, {1});
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    ASSERT_TRUE(p.valid);
    ASSERT_EQ(p.NumTiles(), 1);
    ASSERT_EQ(p.NumTensors(), 3);  // W, I, O

    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
    EvalReport r = EvaluateSchedule(g, hw, p, dlsa, hw.gbuf_bytes,
                                    g.TotalOps());
    ASSERT_TRUE(r.valid) << r.why_invalid;

    // Serial: load W, load I, compute, store O.
    double t_w = hw.DramSeconds(p.tensors[0].bytes);
    double t_i = hw.DramSeconds(p.tensors[1].bytes);
    double t_c = p.tiles[0].cost.seconds;
    double t_o = hw.DramSeconds(p.tensors[2].bytes);
    EXPECT_NEAR(r.latency, t_w + t_i + t_c + t_o, kEps);
    EXPECT_NEAR(r.compute_busy, t_c, kEps);
    EXPECT_NEAR(r.dram_busy, t_w + t_i + t_o, kEps);
}

TEST(Evaluator, PrefetchOverlapsComputeExactly)
{
    Graph g = MakeChain(2);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    // Fused into one LG: tensors are WA, IA, WB, OB.
    LfaEncoding lfa;
    lfa.order = {0, 1};
    lfa.tiling = {1};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    ASSERT_TRUE(p.valid);
    ASSERT_EQ(p.NumTensors(), 4);

    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
    EvalReport r = EvaluateSchedule(g, hw, p, dlsa, hw.gbuf_bytes,
                                    g.TotalOps());
    ASSERT_TRUE(r.valid);

    double t_wa = hw.DramSeconds(p.tensors[0].bytes);
    double t_ia = hw.DramSeconds(p.tensors[1].bytes);
    double t_wb = hw.DramSeconds(p.tensors[2].bytes);
    double t_a = p.tiles[0].cost.seconds;
    double t_b = p.tiles[1].cost.seconds;
    double t_ob = hw.DramSeconds(p.tensors[3].bytes);

    // WB (Start 0) streams during A's compute; B starts at
    // max(A done, WB done); OB follows.
    double a_start = t_wa + t_ia;
    double b_start = std::max(a_start + t_a, a_start + t_wb);
    EXPECT_NEAR(r.latency, b_start + t_b + t_ob, kEps);
}

TEST(Evaluator, LazyLoadingStallsMoreThanDoubleBuffer)
{
    Graph g = MakeChain(4);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = {0, 1, 2, 3};
    lfa.tiling = {1};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    ASSERT_TRUE(p.valid);

    EvalReport db = EvaluateSchedule(g, hw, p, MakeDoubleBufferDlsa(p),
                                     hw.gbuf_bytes, g.TotalOps());
    EvalReport lazy = EvaluateSchedule(g, hw, p, MakeLazyDlsa(p),
                                       hw.gbuf_bytes, g.TotalOps());
    ASSERT_TRUE(db.valid);
    ASSERT_TRUE(lazy.valid);
    EXPECT_LT(db.latency, lazy.latency);
    // Same data moves either way; energy is identical.
    EXPECT_NEAR(db.EnergyJ(), lazy.EnergyJ(), 1e-15);
}

TEST(Evaluator, EarlierWeightStartRemovesStall)
{
    // The paper's WB example (Fig. 4b): pulling a weight's Start one
    // tile earlier removes the stall before its layer.
    Graph g = MakeChain(3);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = {0, 1, 2};
    lfa.tiling = {1};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    ASSERT_TRUE(p.valid);

    DlsaEncoding late = MakeLazyDlsa(p);
    DlsaEncoding early = late;
    for (int j = 0; j < p.NumTensors(); ++j) {
        if (p.tensors[j].kind == DramTensorKind::kWeight)
            early.free_point[j] = std::max<TilePos>(
                0, p.tensors[j].first_use - 1);
    }
    EvalReport r_late = EvaluateSchedule(g, hw, p, late, hw.gbuf_bytes,
                                         g.TotalOps());
    EvalReport r_early = EvaluateSchedule(g, hw, p, early, hw.gbuf_bytes,
                                          g.TotalOps());
    ASSERT_TRUE(r_late.valid);
    ASSERT_TRUE(r_early.valid);
    EXPECT_LT(r_early.latency, r_late.latency);
}

TEST(Evaluator, StoreEndConstraintStallsNextTile)
{
    // Two unfused layers: A's ofmap store with End at B's tile forces B
    // to wait for the store; End one tile later does not.
    Graph g = MakeChain(2);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa = MakeUnfusedLfa(g, {1, 1});
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    ASSERT_TRUE(p.valid);

    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
    int store_a = -1;
    for (int j = 0; j < p.NumTensors(); ++j) {
        if (p.tensors[j].kind == DramTensorKind::kOfmap &&
            p.tensors[j].layer == 0) {
            store_a = j;
        }
    }
    ASSERT_GE(store_a, 0);

    DlsaEncoding tight = dlsa;
    tight.free_point[store_a] = 1;  // must finish before tile B
    DlsaEncoding slack = dlsa;
    slack.free_point[store_a] = 2;

    EvalReport r_tight = EvaluateSchedule(g, hw, p, tight, hw.gbuf_bytes,
                                          g.TotalOps());
    EvalReport r_slack = EvaluateSchedule(g, hw, p, slack, hw.gbuf_bytes,
                                          g.TotalOps());
    ASSERT_TRUE(r_tight.valid);
    ASSERT_TRUE(r_slack.valid);
    EXPECT_LE(r_slack.latency, r_tight.latency);
    // In the tight case, B's start is at or after the store's finish.
    EXPECT_GE(r_tight.tile_times[1].start + kEps,
              r_tight.tensor_times[store_a].finish);
}

TEST(Evaluator, DeadlockedOrderDetected)
{
    Graph g = MakeChain(2);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = {0, 1};
    lfa.tiling = {1};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    ASSERT_TRUE(p.valid);

    // Order WB (forced Start 1) before WA/IA: WB waits for tile 0, which
    // waits for its own loads stuck behind WB.
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
    int wb = -1;
    for (int j = 0; j < p.NumTensors(); ++j) {
        if (p.tensors[j].kind == DramTensorKind::kWeight &&
            p.tensors[j].layer == 1) {
            wb = j;
        }
    }
    ASSERT_GE(wb, 0);
    dlsa.free_point[wb] = 1;
    // Move WB to the front of the order.
    auto it = std::find(dlsa.order.begin(), dlsa.order.end(), wb);
    std::rotate(dlsa.order.begin(), it, it + 1);
    ASSERT_TRUE(DlsaValid(p, dlsa));  // structurally fine...
    EvalReport r = EvaluateSchedule(g, hw, p, dlsa, hw.gbuf_bytes,
                                    g.TotalOps());
    EXPECT_FALSE(r.valid);  // ...but undispatchable
    EXPECT_NE(r.why_invalid.find("deadlock"), std::string::npos);
}

TEST(Evaluator, BufferBudgetEnforced)
{
    Graph g = MakeChain(3);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = {0, 1, 2};
    lfa.tiling = {1};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);

    EvalReport ok = EvaluateSchedule(g, hw, p, dlsa, hw.gbuf_bytes,
                                     g.TotalOps());
    ASSERT_TRUE(ok.valid);
    EXPECT_EQ(ok.peak_buffer, PeakBufferUsage(p, dlsa));
    EXPECT_GE(static_cast<double>(ok.peak_buffer), ok.avg_buffer);

    EvalReport tiny = EvaluateSchedule(g, hw, p, dlsa, ok.peak_buffer - 1,
                                       g.TotalOps());
    EXPECT_FALSE(tiny.valid);
    EXPECT_EQ(tiny.why_invalid, "buffer overflow");
    EXPECT_EQ(tiny.peak_buffer, ok.peak_buffer);

    EvalReport exact = EvaluateSchedule(g, hw, p, dlsa, ok.peak_buffer,
                                        g.TotalOps());
    EXPECT_TRUE(exact.valid);
}

TEST(Evaluator, UtilizationInvariants)
{
    Graph g = MakeChain(5);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = {0, 1, 2, 3, 4};
    lfa.tiling = {2};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    ASSERT_TRUE(p.valid);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
    EvalReport r = EvaluateSchedule(g, hw, p, dlsa, hw.gbuf_bytes,
                                    g.TotalOps());
    ASSERT_TRUE(r.valid);

    EXPECT_GT(r.compute_util, 0.0);
    EXPECT_LE(r.compute_util, r.theory_max_util + 1e-9);
    EXPECT_GE(r.latency, r.compute_busy - kEps);
    EXPECT_GE(r.latency, r.dram_busy - kEps);
    EXPECT_LE(r.dram_util, 1.0 + 1e-9);
    EXPECT_GT(r.EnergyJ(), 0.0);
    EXPECT_GT(r.core_energy_j, 0.0);
    EXPECT_GT(r.dram_energy_j, 0.0);
}

TEST(Evaluator, DramEnergyMatchesBytes)
{
    Graph g = MakeSingle();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa = MakeUnfusedLfa(g, {1});
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
    EvalReport r = EvaluateSchedule(g, hw, p, dlsa, hw.gbuf_bytes,
                                    g.TotalOps());
    ASSERT_TRUE(r.valid);
    Bytes bytes = 0;
    for (const DramTensor &t : p.tensors) bytes += t.bytes;
    EXPECT_EQ(p.dram_bytes, bytes);
    double expected = static_cast<double>(bytes) *
                      hw.energy.dram_pj_per_byte * 1e-12;
    EXPECT_NEAR(r.dram_energy_j, expected, expected * 1e-9);
    EXPECT_EQ(r.dram_bytes, bytes);
}

TEST(Evaluator, CostFunction)
{
    EvalReport r;
    r.valid = false;
    EXPECT_TRUE(std::isinf(r.Cost()));
    r.valid = true;
    r.latency = 2.0;
    r.core_energy_j = 3.0;
    r.dram_energy_j = 1.0;
    EXPECT_NEAR(r.Cost(1, 1), 8.0, kEps);
    EXPECT_NEAR(r.Cost(2, 1), 32.0, kEps);
    EXPECT_NEAR(r.Cost(0, 1), 2.0, kEps);
}

TEST(Evaluator, TimelineMonotoneAndConsistent)
{
    Graph g = MakeChain(4);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = {0, 1, 2, 3};
    lfa.tiling = {2};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
    EvalReport r = EvaluateSchedule(g, hw, p, dlsa, hw.gbuf_bytes,
                                    g.TotalOps());
    ASSERT_TRUE(r.valid);

    for (int i = 1; i < p.NumTiles(); ++i) {
        EXPECT_GE(r.tile_times[i].start + kEps,
                  r.tile_times[i - 1].finish);
    }
    for (int rix = 1; rix < p.NumTensors(); ++rix) {
        EXPECT_GE(r.tensor_times[dlsa.order[rix]].start + kEps,
                  r.tensor_times[dlsa.order[rix - 1]].finish);
    }
    // Loads finish before their consuming tile starts.
    for (int i = 0; i < p.NumTiles(); ++i) {
        for (int j = p.tiles[i].load_begin; j < p.tiles[i].load_end; ++j) {
            EXPECT_LE(r.tensor_times[j].finish,
                      r.tile_times[i].start + kEps);
        }
    }
}

}  // namespace
}  // namespace soma

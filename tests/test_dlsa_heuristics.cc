/**
 * @file
 * DLSA heuristic tests: clamping of double-buffer/lazy/slack variants,
 * the buffer-vs-overlap trade of deeper prefetch leads, and Cocco's
 * group-head weight bursts.
 */
#include <gtest/gtest.h>

#include "corearray/core_array.h"
#include "notation/parser.h"
#include "search/dlsa_heuristics.h"
#include "sim/evaluator.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

struct Fix {
    Graph graph;
    HardwareConfig hw;
    ParsedSchedule parsed;
};

/** A 6-conv chain fused into one LG with T=2: plenty of weight loads. */
Fix
MakeFix()
{
    GraphBuilder b("chain", 1);
    LayerId x = b.InputConv("c0", ExtShape{3, 32, 32}, 48, 3, 1, 1);
    for (int i = 1; i < 6; ++i)
        x = b.Conv("c" + std::to_string(i), x, 48, 3, 1, 1);
    b.MarkOutput(x);
    Fix f{b.Take(), EdgeAccelerator(), {}};
    CoreArrayEvaluator eval(f.graph, f.hw);
    LfaEncoding lfa;
    lfa.order = f.graph.TopoOrder();
    lfa.tiling = {2};
    f.parsed = ParseLfa(f.graph, lfa, eval);
    EXPECT_TRUE(f.parsed.valid);
    return f;
}

TEST(DlsaHeuristics, AllVariantsValid)
{
    Fix f = MakeFix();
    for (const DlsaEncoding &d :
         {MakeDoubleBufferDlsa(f.parsed), MakeLazyDlsa(f.parsed),
          MakeSlackDlsa(f.parsed, 8, 4)}) {
        EXPECT_TRUE(DlsaValid(f.parsed, d));
    }
}

TEST(DlsaHeuristics, PeakBufferMonotoneInLead)
{
    // Deeper prefetch never shrinks buffer occupancy.
    Fix f = MakeFix();
    Bytes prev = 0;
    for (TilePos lead : {0, 1, 2, 4, 8}) {
        Bytes peak =
            PeakBufferUsage(f.parsed, MakeSlackDlsa(f.parsed, lead, 2));
        EXPECT_GE(peak, prev) << "lead " << lead;
        prev = peak;
    }
}

TEST(DlsaHeuristics, DeeperLeadHidesMoreLoads)
{
    // With an uncongested buffer, deeper leads can only help latency
    // (loads start earlier; the serial DRAM order is unchanged).
    Fix f = MakeFix();
    Ops ops = f.graph.TotalOps();
    double prev = 1e30;
    for (TilePos lead : {0, 1, 4, 16}) {
        EvalReport r = EvaluateSchedule(f.graph, f.hw, f.parsed,
                                        MakeSlackDlsa(f.parsed, lead, 4),
                                        f.hw.gbuf_bytes, ops);
        ASSERT_TRUE(r.valid) << "lead " << lead;
        EXPECT_LE(r.latency, prev + 1e-12) << "lead " << lead;
        prev = r.latency;
    }
}

TEST(DlsaHeuristics, SlackClampsToLegalRanges)
{
    Fix f = MakeFix();
    DlsaEncoding d = MakeSlackDlsa(f.parsed, 1000, 1000);
    for (int j = 0; j < f.parsed.NumTensors(); ++j) {
        EXPECT_GE(d.free_point[j], f.parsed.FreePointMin(j));
        EXPECT_LE(d.free_point[j], f.parsed.FreePointMax(j));
    }
    EXPECT_TRUE(DlsaValid(f.parsed, d));
}

TEST(DlsaHeuristics, LazyIsTightestFeasible)
{
    Fix f = MakeFix();
    DlsaEncoding lazy = MakeLazyDlsa(f.parsed);
    for (int j = 0; j < f.parsed.NumTensors(); ++j) {
        const DramTensor &t = f.parsed.tensors[j];
        if (t.IsLoad()) {
            EXPECT_EQ(lazy.free_point[j], t.first_use);
        } else {
            EXPECT_EQ(lazy.free_point[j],
                      std::min<TilePos>(f.parsed.NumTiles(),
                                        t.first_use + 1));
        }
    }
    // Lazy has the smallest peak of all slack variants.
    Bytes lazy_peak = PeakBufferUsage(f.parsed, lazy);
    Bytes db_peak =
        PeakBufferUsage(f.parsed, MakeDoubleBufferDlsa(f.parsed));
    EXPECT_LE(lazy_peak, db_peak);
}

TEST(DlsaHeuristics, CoccoBurstsWeightsAtGroupHead)
{
    // Two LGs: the second LG's weights must have Start just before the
    // LG boundary, not just before their layer.
    GraphBuilder b("twolg", 1);
    LayerId x = b.InputConv("c0", ExtShape{3, 32, 32}, 32, 3, 1, 1);
    for (int i = 1; i < 4; ++i)
        x = b.Conv("c" + std::to_string(i), x, 32, 3, 1, 1);
    b.MarkOutput(x);
    Graph g = b.Take();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.flc_cuts = {2};
    lfa.dram_cuts = {2};
    lfa.tiling = {1, 1};
    ParseOptions popts{/*lg_resident_weights=*/true};
    ParsedSchedule p = ParseLfa(g, lfa, eval, popts);
    ASSERT_TRUE(p.valid);
    DlsaEncoding d = MakeCoccoDlsa(p);
    for (int j = 0; j < p.NumTensors(); ++j) {
        const DramTensor &t = p.tensors[j];
        if (t.kind != DramTensorKind::kWeight) continue;
        TilePos expected =
            std::max<TilePos>(0, p.lg_base[p.tiles[t.first_use].lg] - 1);
        EXPECT_EQ(d.free_point[j], expected)
            << t.Label(g) << " should start at its LG head";
    }
    EXPECT_TRUE(DlsaValid(p, d));
}

TEST(DlsaHeuristics, CoccoWeightsHeldLongerThanSomaWeights)
{
    // Identical LFA, both semantics: Cocco's parse must show a larger
    // or equal weight-holding peak.
    GraphBuilder b("hold", 1);
    LayerId x = b.InputConv("c0", ExtShape{3, 16, 16}, 64, 3, 1, 1);
    for (int i = 1; i < 4; ++i)
        x = b.Conv("c" + std::to_string(i), x, 64, 3, 1, 1);
    b.MarkOutput(x);
    Graph g = b.Take();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.tiling = {2};
    ParsedSchedule soma_p = ParseLfa(g, lfa, eval);
    ParsedSchedule cocco_p =
        ParseLfa(g, lfa, eval, ParseOptions{/*lg_resident_weights=*/true});
    ASSERT_TRUE(soma_p.valid);
    ASSERT_TRUE(cocco_p.valid);
    Bytes soma_peak =
        PeakBufferUsage(soma_p, MakeDoubleBufferDlsa(soma_p));
    Bytes cocco_peak = PeakBufferUsage(cocco_p, MakeCoccoDlsa(cocco_p));
    EXPECT_GT(cocco_peak, soma_peak);
}

}  // namespace
}  // namespace soma

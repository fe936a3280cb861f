/**
 * @file
 * Cocco baseline tests: the restricted encoding (FLC == DRAM cuts,
 * heuristic tiling), conservative weight residency, and the expected
 * competitive relationship with SoMa.
 */
#include <gtest/gtest.h>

#include "baselines/cocco.h"
#include "search/soma.h"
#include "workload/graph_builder.h"
#include "workload/models.h"

namespace soma {
namespace {

Graph
MakeNet()
{
    GraphBuilder b("net", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 32, 32}, 32, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 32, 3, 1, 1);
    LayerId c3 = b.Conv("c3", c2, 64, 3, 2, 1);
    LayerId c4 = b.Conv("c4", c3, 64, 3, 1, 1);
    b.MarkOutput(c4);
    return b.Take();
}

TEST(Cocco, EncodingTiesFlcToDramCuts)
{
    Graph g = MakeNet();
    HardwareConfig hw = EdgeAccelerator();
    LfaEncoding lfa = MakeCoccoLfa(g, hw, g.TopoOrder(), {2}, 128);
    EXPECT_TRUE(lfa.StructurallyValid(g));
    EXPECT_EQ(lfa.flc_cuts, lfa.dram_cuts);
    EXPECT_EQ(lfa.NumFlgs(), 2);
    EXPECT_EQ(static_cast<int>(lfa.tiling.size()), 2);
    for (int t : lfa.tiling) EXPECT_GE(t, 1);
}

TEST(Cocco, TilingDerivedNotSearched)
{
    Graph g = MakeNet();
    HardwareConfig hw = EdgeAccelerator();
    LfaEncoding a = MakeCoccoLfa(g, hw, g.TopoOrder(), {2}, 128);
    LfaEncoding b = MakeCoccoLfa(g, hw, g.TopoOrder(), {2}, 128);
    EXPECT_EQ(a.tiling, b.tiling);  // deterministic heuristic
}

TEST(Cocco, RunProducesValidScheme)
{
    Graph g = MakeNet();
    HardwareConfig hw = EdgeAccelerator();
    SearchResult res =
        RunCocco(g, hw, CoccoOptionsFor(SearchProfile::kQuick, 5));
    ASSERT_TRUE(res.report.valid) << res.report.why_invalid;
    EXPECT_LE(res.report.peak_buffer, hw.gbuf_bytes);
    EXPECT_TRUE(res.lfa.StructurallyValid(g));
    EXPECT_EQ(res.lfa.flc_cuts, res.lfa.dram_cuts);
}

TEST(Cocco, WeightsResidentForWholeGroup)
{
    Graph g = MakeNet();
    HardwareConfig hw = EdgeAccelerator();
    SearchResult res =
        RunCocco(g, hw, CoccoOptionsFor(SearchProfile::kQuick, 5));
    ASSERT_TRUE(res.report.valid);
    const ParsedSchedule &p = res.parsed;
    for (const DramTensor &t : p.tensors) {
        if (t.kind == DramTensorKind::kWeight) {
            EXPECT_EQ(t.fixed_end, p.lg_base[p.tiles[t.first_use].lg + 1]);
        }
    }
}

TEST(Cocco, WeightResidencyLimitsFusion)
{
    // A network whose total weights exceed the buffer: Cocco must cut it
    // into several LGs, while SoMa's windowed weights can fuse it whole.
    GraphBuilder b("heavy", 1);
    LayerId x = b.InputConv("c0", ExtShape{64, 16, 16}, 512, 3, 1, 1);
    for (int i = 1; i <= 5; ++i) {
        x = b.Conv("c" + std::to_string(i), x, 512, 3, 1, 1);
        // each ~2.36 MB of weights; 6 layers ~ 14 MB > 8 MB GBUF
    }
    b.MarkOutput(x);
    Graph g = b.Take();
    HardwareConfig hw = EdgeAccelerator();

    SearchResult cocco =

        RunCocco(g, hw, CoccoOptionsFor(SearchProfile::kQuick, 5));
    ASSERT_TRUE(cocco.report.valid);
    EXPECT_GE(cocco.report.num_lgs, 2);

    SearchResult ours =

        RunSoma(g, hw, SomaOptionsFor(SearchProfile::kQuick, 5));
    ASSERT_TRUE(ours.report.valid);
    EXPECT_LE(ours.report.num_lgs, cocco.report.num_lgs);
    EXPECT_LE(ours.report.dram_bytes, cocco.report.dram_bytes);
}

TEST(Cocco, SomaNeverMeaningfullyWorse)
{
    // SoMa explores a strict superset of Cocco's space modulo heuristic
    // tiling; with equal seeds and small nets it should match or beat
    // Cocco's cost (tolerance for SA noise).
    Graph g = MakeNet();
    HardwareConfig hw = EdgeAccelerator();
    SearchResult cocco =
        RunCocco(g, hw, CoccoOptionsFor(SearchProfile::kQuick, 1));
    SearchResult ours =
        RunSoma(g, hw, SomaOptionsFor(SearchProfile::kQuick, 1));
    ASSERT_TRUE(cocco.report.valid);
    ASSERT_TRUE(ours.report.valid);
    EXPECT_LE(ours.cost, cocco.cost * 1.05);
}

TEST(Cocco, InfeasibleWhenSingleLayerExceedsBuffer)
{
    // One layer whose weights alone exceed the GBUF: with group-resident
    // weights there is no valid Cocco scheme at all.
    GraphBuilder b("huge", 1);
    Layer l("fat", LayerKind::kGemm, 4096, 1, 1);
    l.setOpsPerElement(2 * 4096);
    l.setWeightBytes(16LL * 1024 * 1024);  // 16 MB > 8 MB
    l.addInput(InputRef{kNoLayer, AccessPattern::kRowAligned,
                        ExtShape{4096, 1, 1}});
    b.graph().AddLayer(std::move(l));
    Graph g = b.Take();
    HardwareConfig hw = EdgeAccelerator();
    SearchResult res =
        RunCocco(g, hw, CoccoOptionsFor(SearchProfile::kQuick, 1));
    EXPECT_FALSE(res.report.valid);
}

}  // namespace
}  // namespace soma

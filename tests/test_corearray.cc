/**
 * @file
 * Core Array Scheduler & Evaluator tests: cost scaling, partition-search
 * efficiency effects, per-tile overheads, position independence, energy
 * split.
 */
#include <gtest/gtest.h>

#include "corearray/core_array.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

Graph
MakeConvNet(int channels, int dim)
{
    GraphBuilder b("net", 1);
    LayerId c = b.InputConv("conv", ExtShape{16, dim, dim}, channels, 3, 1,
                            1);
    LayerId e = b.Eltwise("elt", {c, c});
    (void)e;
    return b.Take();
}

TEST(CoreArray, EmptyRegionIsFree)
{
    Graph g = MakeConvNet(32, 16);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    TileCost c = eval.Evaluate(0, Region{});
    EXPECT_EQ(c.seconds, 0.0);
    EXPECT_EQ(c.energy_pj, 0.0);
    EXPECT_EQ(c.ops, 0);
}

TEST(CoreArray, OpsMatchLayerAccounting)
{
    Graph g = MakeConvNet(32, 16);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    Region full = g.layer(0).FullRegion(1);
    TileCost c = eval.Evaluate(0, full);
    EXPECT_EQ(c.ops, g.layer(0).OpsForRegion(full));
    EXPECT_GT(c.seconds, 0.0);
    EXPECT_GT(c.energy_pj, 0.0);
    EXPECT_GT(c.gbuf_traffic, 0);
}

TEST(CoreArray, TwoHalvesCostAtLeastOneWhole)
{
    // Per-tile overhead makes splitting never cheaper in compute time.
    Graph g = MakeConvNet(64, 32);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    Region full = g.layer(0).FullRegion(1);
    Region top{0, 1, 0, 16, 0, 32};
    Region bottom{0, 1, 16, 32, 0, 32};
    double whole = eval.Evaluate(0, full).seconds;
    double split = eval.Evaluate(0, top).seconds +
                   eval.Evaluate(0, bottom).seconds;
    EXPECT_GE(split, whole);
}

TEST(CoreArray, ThroughputApproachesPeakForLargeTiles)
{
    Graph g = MakeConvNet(256, 64);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    Region full = g.layer(0).FullRegion(1);
    TileCost c = eval.Evaluate(0, full);
    double achieved = static_cast<double>(c.ops) / c.seconds;
    EXPECT_GT(achieved, 0.5 * hw.PeakOpsPerSecond());
    EXPECT_LE(achieved, hw.PeakOpsPerSecond() * 1.001);
}

TEST(CoreArray, RaggedChannelsLoseEfficiency)
{
    // 33 channels wastes most of the second PE-row pass vs 32.
    Graph g32 = MakeConvNet(32, 32);
    Graph g33 = MakeConvNet(33, 32);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator e32(g32, hw), e33(g33, hw);
    TileCost c32 = e32.Evaluate(0, g32.layer(0).FullRegion(1));
    TileCost c33 = e33.Evaluate(0, g33.layer(0).FullRegion(1));
    double per_op_32 = c32.seconds / static_cast<double>(c32.ops);
    double per_op_33 = c33.seconds / static_cast<double>(c33.ops);
    EXPECT_GT(per_op_33, per_op_32 * 1.2);
}

TEST(CoreArray, VectorLayerUsesVectorThroughput)
{
    Graph g = MakeConvNet(32, 32);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    Region full = g.layer(1).FullRegion(1);  // eltwise
    TileCost c = eval.Evaluate(1, full);
    double expected_cycles =
        static_cast<double>(c.ops) /
        (hw.VectorOpsPerSecond() / (hw.freq_ghz * 1e9));
    double actual_cycles = c.seconds * hw.freq_ghz * 1e9;
    EXPECT_NEAR(actual_cycles,
                expected_cycles + CoreArrayEvaluator::kTileOverheadCycles,
                expected_cycles * 0.1 + 2.0);
}

TEST(CoreArray, EqualExtentsAndInputsCostTheSame)
{
    Graph g = MakeConvNet(32, 32);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    // Two interior tiles: same extents, same (unclipped) input halo.
    Region a{0, 1, 8, 16, 0, 32};
    Region b{0, 1, 16, 24, 0, 32};
    EXPECT_EQ(eval.Evaluate(0, a), eval.Evaluate(0, b));
}

TEST(CoreArray, EnergyGrowsWithTraffic)
{
    // The same math with a bigger input (more GBUF traffic) costs more
    // energy: compare 1x1 conv against 3x3 conv with same output.
    GraphBuilder b("t", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{64, 32, 32}, 64, 1, 1, 0);
    LayerId c3 = b.Conv("c3", c1, 64, 3, 1, 1);
    Graph g = b.Take();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    TileCost cost1 = eval.Evaluate(c1, g.layer(c1).FullRegion(1));
    TileCost cost3 = eval.Evaluate(c3, g.layer(c3).FullRegion(1));
    // 9x the MACs and more weight traffic.
    EXPECT_GT(cost3.energy_pj, cost1.energy_pj * 5);
}

TEST(CoreArray, CloudFasterThanEdge)
{
    Graph g = MakeConvNet(256, 64);
    CoreArrayEvaluator edge(g, EdgeAccelerator());
    CoreArrayEvaluator cloud(g, CloudAccelerator());
    Region full = g.layer(0).FullRegion(1);
    EXPECT_LT(cloud.Evaluate(0, full).seconds,
              edge.Evaluate(0, full).seconds);
}

TEST(CoreArray, BorderAndInteriorTilesCostDifferently)
{
    // A border tile's halo is clipped, so it reads fewer input bytes
    // than an interior tile of equal extents, and costs less.
    Graph g = MakeConvNet(32, 32);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    const TileCost border = eval.Evaluate(0, Region{0, 1, 0, 8, 0, 32});
    const TileCost interior = eval.Evaluate(0, Region{0, 1, 8, 16, 0, 32});
    EXPECT_NE(border, interior);
    EXPECT_LT(border.gbuf_traffic, interior.gbuf_traffic);
}

}  // namespace
}  // namespace soma

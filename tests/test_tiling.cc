/**
 * @file
 * Tiling substrate tests: split selection, canonical slices, backward
 * halo propagation inside FLGs, and the parallelism heuristic.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "tiling/tiler.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

TEST(ChooseTileSplit, BatchFirst)
{
    auto s = ChooseTileSplit(4, 4, 8, 8);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->batch, 4);
    EXPECT_EQ(s->rows, 1);
    EXPECT_EQ(s->cols, 1);
}

TEST(ChooseTileSplit, SpillsIntoNearSquareSpatial)
{
    auto s = ChooseTileSplit(16, 2, 32, 32);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->batch, 2);
    EXPECT_EQ(s->rows * s->cols, 8);
    EXPECT_LE(std::abs(s->rows - s->cols), 2);
    EXPECT_EQ(s->Total(), 16);
}

TEST(ChooseTileSplit, RowsOnlyWhenWidthIsOne)
{
    auto s = ChooseTileSplit(8, 1, 512, 1);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->rows, 8);
    EXPECT_EQ(s->cols, 1);
}

TEST(ChooseTileSplit, InfeasibleReturnsNullopt)
{
    EXPECT_FALSE(ChooseTileSplit(64, 1, 4, 4).has_value());
    EXPECT_FALSE(ChooseTileSplit(3, 1, 1, 1).has_value());
}

TEST(ChooseTileSplit, SingleTileAlwaysWorks)
{
    auto s = ChooseTileSplit(1, 1, 1, 1);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->Total(), 1);
}

TEST(CanonicalSlice, DisjointCover)
{
    TileSplit split{2, 2, 2};
    const int batch = 2, h = 7, w = 5;
    std::int64_t covered = 0;
    for (int i = 0; i < split.Total(); ++i) {
        Region r = CanonicalSlice(split, i, batch, h, w);
        EXPECT_FALSE(r.Empty());
        covered += r.Sites();
        for (int j = 0; j < i; ++j) {
            Region other = CanonicalSlice(split, j, batch, h, w);
            EXPECT_TRUE(Region::Intersect(r, other).Empty())
                << "tiles " << i << " and " << j << " overlap";
        }
    }
    EXPECT_EQ(covered, static_cast<std::int64_t>(batch) * h * w);
}

class FlgTilingTest : public ::testing::Test {
  protected:
    /** conv(3x3, s1, p1) -> conv(3x3, s1, p1) chain on 16x16. */
    Graph MakeChain(int batch = 1)
    {
        GraphBuilder b("chain", batch);
        LayerId c1 = b.InputConv("c1", ExtShape{3, 16, 16}, 8, 3, 1, 1);
        LayerId c2 = b.Conv("c2", c1, 8, 3, 1, 1);
        LayerId c3 = b.Conv("c3", c2, 8, 3, 1, 1);
        (void)c3;
        return b.Take();
    }
};

TEST_F(FlgTilingTest, SinkGetsCanonicalSlices)
{
    Graph g = MakeChain();
    FlgTiling t = ComputeFlgTiling(g, {0, 1, 2}, 4);
    ASSERT_TRUE(t.valid);
    // Last layer (sink): exact even slices.
    std::int64_t covered = 0;
    for (int i = 0; i < 4; ++i) covered += t.regions[2][i].Sites();
    EXPECT_EQ(covered, 16 * 16);
}

TEST_F(FlgTilingTest, HaloGrowsBackward)
{
    Graph g = MakeChain();
    FlgTiling t = ComputeFlgTiling(g, {0, 1, 2}, 4);
    ASSERT_TRUE(t.valid);
    // Earlier layers compute more than their canonical share: each 3x3
    // consumer adds a 1-row halo per side per level.
    std::int64_t sites0 = 0, sites1 = 0, sites2 = 0;
    for (int i = 0; i < 4; ++i) {
        sites0 += t.regions[0][i].Sites();
        sites1 += t.regions[1][i].Sites();
        sites2 += t.regions[2][i].Sites();
    }
    EXPECT_EQ(sites2, 256);
    EXPECT_GT(sites1, sites2);
    EXPECT_GT(sites0, sites1);
}

TEST_F(FlgTilingTest, BatchSplitHasNoHalo)
{
    Graph g = MakeChain(4);
    FlgTiling t = ComputeFlgTiling(g, {0, 1, 2}, 4);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.split.batch, 4);
    for (int layer = 0; layer < 3; ++layer) {
        std::int64_t sites = 0;
        for (int i = 0; i < 4; ++i) sites += t.regions[layer][i].Sites();
        EXPECT_EQ(sites, 4 * 16 * 16) << "layer " << layer;
    }
}

TEST_F(FlgTilingTest, SingleTileEqualsFullFmaps)
{
    Graph g = MakeChain();
    FlgTiling t = ComputeFlgTiling(g, {0, 1, 2}, 1);
    ASSERT_TRUE(t.valid);
    for (int layer = 0; layer < 3; ++layer)
        EXPECT_EQ(t.regions[layer][0].Sites(), 256);
}

TEST_F(FlgTilingTest, InfeasibleTilingInvalid)
{
    Graph g = MakeChain();
    FlgTiling t = ComputeFlgTiling(g, {0, 1, 2}, 512);  // > 16*16 rows*cols
    EXPECT_FALSE(t.valid);
}

TEST(FlgTiling, FullPatternConsumerForcesRecompute)
{
    GraphBuilder b("attn", 1);
    LayerId q = b.InputConv("q", ExtShape{4, 16, 1}, 8, 1, 1, 0);
    LayerId k = b.Conv("k", q, 8, 1, 1, 0);
    LayerId mm = b.Matmul("mm", q, k, 8, 16);
    (void)mm;
    Graph g = b.Take();
    FlgTiling t = ComputeFlgTiling(g, {0, 1, 2}, 4);
    ASSERT_TRUE(t.valid);
    // k feeds mm's full operand: every round needs all 16 rows.
    for (int i = 0; i < 4; ++i) EXPECT_EQ(t.regions[1][i].Rows(), 16);
    // mm itself (sink) splits rows evenly.
    std::int64_t mm_sites = 0;
    for (int i = 0; i < 4; ++i) mm_sites += t.regions[2][i].Sites();
    EXPECT_EQ(mm_sites, 16);
}

TEST(FlgTiling, MidFlgNetworkOutputIsSink)
{
    GraphBuilder b("t", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 8, 8}, 8, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 8, 3, 1, 1);
    b.MarkOutput(c1);
    (void)c2;
    Graph g = b.Take();
    FlgTiling t = ComputeFlgTiling(g, {0, 1}, 2);
    ASSERT_TRUE(t.valid);
    // c1 must cover both its canonical slice and c2's halo need.
    EXPECT_GE(t.regions[0][0].Sites() + t.regions[0][1].Sites(), 64);
}

// Helper used by the heuristic tests.
Graph
MakeSingleConv(int channels, int hw_dim, int batch)
{
    GraphBuilder b("one", batch);
    LayerId c = b.InputConv("c", ExtShape{3, hw_dim, hw_dim}, channels, 3,
                            1, 1);
    (void)c;
    return b.Take();
}

TEST(HeuristicTiles, FinerForLargeSpatial)
{
    HardwareConfig hw = EdgeAccelerator();
    Graph big = MakeSingleConv(64, 112, 1);
    Graph small = MakeSingleConv(64, 14, 1);
    int t_big = HeuristicParallelTiles(big, {0}, hw);
    int t_small = HeuristicParallelTiles(small, {0}, hw);
    EXPECT_GT(t_big, t_small);
    // Power of two.
    EXPECT_EQ(t_big & (t_big - 1), 0);
}

TEST(HeuristicTiles, ScalesWithBatch)
{
    HardwareConfig hw = EdgeAccelerator();
    Graph b1 = MakeSingleConv(64, 56, 1);
    Graph b8 = MakeSingleConv(64, 56, 8);
    EXPECT_GT(HeuristicParallelTiles(b8, {0}, hw),
              HeuristicParallelTiles(b1, {0}, hw));
}

TEST(HeuristicTiles, CapRespected)
{
    HardwareConfig hw = EdgeAccelerator();
    Graph g = MakeSingleConv(64, 112, 16);
    EXPECT_LE(HeuristicParallelTiles(g, {0}, hw, 32), 32);
}

TEST(HeuristicTiles, VectorOnlyGroupStillTiles)
{
    GraphBuilder b("v", 4);
    LayerId c = b.InputConv("c", ExtShape{3, 56, 56}, 64, 3, 1, 1);
    LayerId e = b.Eltwise("e", {c, c});
    Graph g = b.Take();
    HardwareConfig hw = EdgeAccelerator();
    // The eltwise-only group must not collapse to T=1 (it would demand
    // full fmaps at once).
    EXPECT_GT(HeuristicParallelTiles(g, {e}, hw), 1);
}

TEST(HeuristicTiles, MinOverGroupLayers)
{
    GraphBuilder b("mix", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 112, 112}, 64, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 512, 3, 2, 1);  // smaller spatial
    Graph g = b.Take();
    HardwareConfig hw = EdgeAccelerator();
    int t_group = HeuristicParallelTiles(g, {c1, c2}, hw);
    int t_c2 = HeuristicParallelTiles(g, {c2}, hw);
    EXPECT_LE(t_group, t_c2);
}

TEST(FlgTiling, RegionsAreOrderInvariantPerLayer)
{
    // Two sibling consumers of one stem: both interior orders of the
    // group are dependency-legal. The split and each layer's per-tile
    // regions depend on the member set alone — the invariant the
    // parser's group memo relies on when it re-points a memoized block
    // at a new interior order instead of re-deriving it.
    GraphBuilder builder("orders", 1);
    LayerId stem =
        builder.InputConv("stem", ExtShape{3, 16, 16}, 8, 3, 1, 1);
    LayerId left = builder.Conv("left", stem, 8, 3, 1, 1);
    LayerId right = builder.Conv("right", stem, 8, 3, 1, 1);
    builder.MarkOutput(left);
    builder.MarkOutput(right);
    Graph g = builder.Take();

    const std::vector<LayerId> a_order{stem, left, right};
    const std::vector<LayerId> b_order{stem, right, left};
    const FlgTiling a = ComputeFlgTiling(g, a_order, 2);
    const FlgTiling b = ComputeFlgTiling(g, b_order, 2);
    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(b.valid);
    EXPECT_EQ(a.split.batch, b.split.batch);
    EXPECT_EQ(a.split.rows, b.split.rows);
    EXPECT_EQ(a.split.cols, b.split.cols);
    for (std::size_t i = 0; i < a_order.size(); ++i) {
        const std::size_t j = static_cast<std::size_t>(
            std::find(b_order.begin(), b_order.end(), a_order[i]) -
            b_order.begin());
        EXPECT_EQ(a.regions[i], b.regions[j]) << "layer " << a_order[i];
    }

    // Infeasibility is a member-set property too.
    EXPECT_FALSE(ComputeFlgTiling(g, a_order, 5000).valid);
    EXPECT_FALSE(ComputeFlgTiling(g, b_order, 5000).valid);
}

}  // namespace
}  // namespace soma

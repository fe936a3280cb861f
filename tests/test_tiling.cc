/**
 * @file
 * Tiling substrate tests: split selection, canonical slices, backward
 * halo propagation inside FLGs, and the parallelism heuristic.
 */
#include <gtest/gtest.h>

#include "tiling/tiler.h"
#include "tiling/tiling_cache.h"
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

// ------------------------------------------------------------ TilingCache

/** Every region of @p got, read through @p perm (empty: identity),
 *  equals the matching region of @p direct. */
void
ExpectRegionsMatch(const FlgTiling &got, const std::vector<std::size_t> &perm,
                   const FlgTiling &direct)
{
    ASSERT_EQ(got.regions.size(), direct.regions.size());
    for (std::size_t i = 0; i < direct.regions.size(); ++i) {
        const auto &row = got.regions[perm.empty() ? i : perm[i]];
        ASSERT_EQ(row.size(), direct.regions[i].size());
        for (std::size_t t = 0; t < direct.regions[i].size(); ++t)
            EXPECT_EQ(row[t], direct.regions[i][t]);
    }
}

TEST(TilingCache, ReturnsComputeFlgTilingValues)
{
    GraphBuilder b("tc", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 32, 32}, 16, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 16, 3, 1, 1);
    b.MarkOutput(c2);
    Graph g = b.Take();

    TilingCache cache;
    std::vector<std::size_t> perm;
    const std::vector<LayerId> layers{c1, c2};
    auto cached = cache.GetView(g, layers, 4, &perm);
    FlgTiling direct = ComputeFlgTiling(g, layers, 4);
    ASSERT_TRUE(cached->valid);
    ASSERT_TRUE(direct.valid);
    EXPECT_TRUE(perm.empty());
    EXPECT_EQ(cached->split.Total(), direct.split.Total());
    ExpectRegionsMatch(*cached, perm, direct);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);

    // Same key: one shared immutable value, counted as a hit.
    auto again = cache.GetView(g, layers, 4, &perm);
    EXPECT_EQ(again.get(), cached.get());
    EXPECT_TRUE(perm.empty());
    EXPECT_EQ(cache.stats().hits, 1u);

    // Infeasible tilings are cached too (the SA walk re-proposes them).
    auto bad = cache.GetView(g, layers, 5000, &perm);
    EXPECT_FALSE(bad->valid);
    EXPECT_TRUE(perm.empty());
    EXPECT_EQ(cache.GetView(g, layers, 5000, &perm).get(), bad.get());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(TilingCache, DistinguishesLayerOrderAndTileCount)
{
    GraphBuilder b("tc2", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 16, 16}, 8, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 8, 3, 1, 1);
    b.MarkOutput(c2);
    Graph g = b.Take();

    TilingCache cache;
    std::vector<std::size_t> perm;
    auto a = cache.GetView(g, {c1, c2}, 2, &perm);
    auto b2 = cache.GetView(g, {c1, c2}, 4, &perm);
    auto c = cache.GetView(g, {c2}, 2, &perm);
    EXPECT_NE(a.get(), b2.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(TilingCache, SinkSetKeySharesAcrossInteriorOrders)
{
    // Two sibling consumers of one stem: both interior orders of the
    // group are dependency-legal. The sink-set key makes them one
    // entry; a hit under the other order returns the stored tiling
    // plus a perm, and reading through it is bit-identical to direct
    // computation.
    GraphBuilder builder("tc3", 1);
    LayerId stem =
        builder.InputConv("stem", ExtShape{3, 16, 16}, 8, 3, 1, 1);
    LayerId left = builder.Conv("left", stem, 8, 3, 1, 1);
    LayerId right = builder.Conv("right", stem, 8, 3, 1, 1);
    builder.MarkOutput(left);
    builder.MarkOutput(right);
    Graph g = builder.Take();

    TilingCache cache;
    std::vector<std::size_t> perm;
    auto first = cache.GetView(g, {stem, left, right}, 2, &perm);
    ASSERT_TRUE(first->valid);
    EXPECT_EQ(cache.stats().misses, 1u);

    auto swapped = cache.GetView(g, {stem, right, left}, 2, &perm);
    EXPECT_EQ(swapped.get(), first.get());  // the stored derivation
    EXPECT_EQ(perm, (std::vector<std::size_t>{0, 2, 1}));
    EXPECT_EQ(cache.stats().misses, 1u);  // same member set: no recompute
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().remaps, 1u);
    EXPECT_EQ(cache.size(), 1u);
    ExpectRegionsMatch(*swapped, perm,
                       ComputeFlgTiling(g, {stem, right, left}, 2));

    // The stored derivation order needs no perm.
    auto again = cache.GetView(g, {stem, left, right}, 2, &perm);
    EXPECT_EQ(again.get(), first.get());
    EXPECT_TRUE(perm.empty());
    EXPECT_EQ(cache.stats().remaps, 1u);

    // An infeasible tiling hit under the other order has no regions to
    // view, so it carries no perm either.
    cache.GetView(g, {stem, left, right}, 5000, &perm);
    auto bad = cache.GetView(g, {stem, right, left}, 5000, &perm);
    EXPECT_FALSE(bad->valid);
    EXPECT_TRUE(perm.empty());
    EXPECT_EQ(cache.stats().remaps, 2u);
}

}  // namespace
}  // namespace soma

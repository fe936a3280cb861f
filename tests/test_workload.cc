/**
 * @file
 * Unit tests for the workload substrate: region arithmetic, layer shape
 * math and access patterns, and graph dependency queries.
 */
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "workload/graph.h"
#include "workload/graph_builder.h"
#include "workload/layer.h"
#include "workload/region.h"

namespace soma {
namespace {

TEST(Region, SitesAndEmpty)
{
    Region r{0, 2, 0, 3, 0, 4};
    EXPECT_EQ(r.Sites(), 24);
    EXPECT_FALSE(r.Empty());
    Region empty{0, 0, 0, 3, 0, 4};
    EXPECT_TRUE(empty.Empty());
    EXPECT_EQ(empty.Sites(), 0);
}

TEST(Region, UnionBoundingBox)
{
    Region a{0, 1, 0, 2, 0, 2};
    Region b{0, 1, 1, 4, 1, 3};
    Region u = Region::Union(a, b);
    EXPECT_EQ(u, (Region{0, 1, 0, 4, 0, 3}));
}

TEST(Region, UnionWithEmpty)
{
    Region a{0, 1, 0, 2, 0, 2};
    Region empty{};
    EXPECT_EQ(Region::Union(a, empty), a);
    EXPECT_EQ(Region::Union(empty, a), a);
}

TEST(Region, Intersect)
{
    Region a{0, 2, 0, 4, 0, 4};
    Region b{1, 3, 2, 6, 1, 3};
    Region i = Region::Intersect(a, b);
    EXPECT_EQ(i, (Region{1, 2, 2, 4, 1, 3}));
    Region c{5, 6, 0, 1, 0, 1};
    EXPECT_TRUE(Region::Intersect(a, c).Empty());
}

TEST(Region, Contains)
{
    Region outer{0, 4, 0, 8, 0, 8};
    Region inner{1, 2, 3, 5, 0, 8};
    EXPECT_TRUE(outer.Contains(inner));
    EXPECT_FALSE(inner.Contains(outer));
    EXPECT_TRUE(inner.Contains(Region{}));  // empty is inside anything
}

TEST(Region, EvenSliceCoversAndIsDisjoint)
{
    const int length = 7, parts = 3;
    int prev_hi = 0;
    for (int i = 0; i < parts; ++i) {
        int lo, hi;
        EvenSlice(length, parts, i, &lo, &hi);
        EXPECT_EQ(lo, prev_hi);
        EXPECT_GT(hi, lo);
        prev_hi = hi;
    }
    EXPECT_EQ(prev_hi, length);
}

TEST(Region, EvenSliceBalanced)
{
    int lo, hi;
    EvenSlice(8, 4, 0, &lo, &hi);
    EXPECT_EQ(hi - lo, 2);
    EvenSlice(8, 4, 3, &lo, &hi);
    EXPECT_EQ(hi - lo, 2);
}

TEST(LayerKind, NameRoundTrip)
{
    for (LayerKind kind :
         {LayerKind::kConv, LayerKind::kDepthwise, LayerKind::kPool,
          LayerKind::kGlobalPool, LayerKind::kGemm, LayerKind::kMatmul,
          LayerKind::kEltwise, LayerKind::kActivation, LayerKind::kLayerNorm,
          LayerKind::kConcat}) {
        LayerKind back;
        ASSERT_TRUE(LayerKindFromName(LayerKindName(kind), &back));
        EXPECT_EQ(back, kind);
    }
    LayerKind k;
    EXPECT_FALSE(LayerKindFromName("nonsense", &k));
}

TEST(LayerKind, MatrixVsVector)
{
    EXPECT_TRUE(IsMatrixKind(LayerKind::kConv));
    EXPECT_TRUE(IsMatrixKind(LayerKind::kGemm));
    EXPECT_TRUE(IsMatrixKind(LayerKind::kMatmul));
    EXPECT_FALSE(IsMatrixKind(LayerKind::kPool));
    EXPECT_FALSE(IsMatrixKind(LayerKind::kEltwise));
    EXPECT_FALSE(IsMatrixKind(LayerKind::kLayerNorm));
}

class ConvRegionTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        layer_ = Layer("conv", LayerKind::kConv, 16, 8, 8);
        layer_.setWindow(WindowParams{3, 3, 1, 1, 1, 1});
        input_ = InputRef{0, AccessPattern::kWindow, {}};
    }
    Layer layer_;
    InputRef input_;
};

TEST_F(ConvRegionTest, InteriorTileExpandsByHalo)
{
    // Output rows [2,4) need input rows [1,5) for a 3x3 stride-1 pad-1.
    Region out{0, 1, 2, 4, 2, 4};
    Region in = layer_.RequiredInputRegion(input_, out, 8, 8);
    EXPECT_EQ(in.r0, 1);
    EXPECT_EQ(in.r1, 5);
    EXPECT_EQ(in.c0, 1);
    EXPECT_EQ(in.c1, 5);
}

TEST_F(ConvRegionTest, BorderTileClipsAtEdges)
{
    Region out{0, 1, 0, 2, 0, 8};
    Region in = layer_.RequiredInputRegion(input_, out, 8, 8);
    EXPECT_EQ(in.r0, 0);   // pad clipped
    EXPECT_EQ(in.r1, 3);
    EXPECT_EQ(in.c0, 0);
    EXPECT_EQ(in.c1, 8);
}

TEST_F(ConvRegionTest, StrideTwoHalvesRows)
{
    Layer l("conv_s2", LayerKind::kConv, 16, 4, 4);
    l.setWindow(WindowParams{3, 3, 2, 2, 1, 1});
    InputRef in_ref{0, AccessPattern::kWindow, {}};
    Region out{0, 1, 0, 2, 0, 4};
    Region in = l.RequiredInputRegion(in_ref, out, 8, 8);
    EXPECT_EQ(in.r0, 0);
    EXPECT_EQ(in.r1, 4);  // (2-1)*2 - 1 + 3 = 4
}

TEST_F(ConvRegionTest, FullPatternTakesEverything)
{
    InputRef full{0, AccessPattern::kFull, {}};
    Region out{0, 2, 3, 4, 0, 1};
    Region in = layer_.RequiredInputRegion(full, out, 10, 12);
    EXPECT_EQ(in, (Region{0, 2, 0, 10, 0, 12}));
}

TEST_F(ConvRegionTest, RowAlignedIdentity)
{
    InputRef row{0, AccessPattern::kRowAligned, {}};
    Region out{1, 3, 2, 5, 0, 8};
    Region in = layer_.RequiredInputRegion(row, out, 8, 8);
    EXPECT_EQ(in, out);
}

TEST_F(ConvRegionTest, EmptyOutputYieldsEmptyInput)
{
    Region out{};
    EXPECT_TRUE(layer_.RequiredInputRegion(input_, out, 8, 8).Empty());
}

TEST(Layer, OpsAndBytesAccounting)
{
    Layer l("conv", LayerKind::kConv, 32, 10, 10);
    l.setOpsPerElement(2 * 16 * 9);  // C=16, 3x3
    l.setWeightBytes(32 * 16 * 9);
    Region full = l.FullRegion(2);
    EXPECT_EQ(l.OpsForRegion(full), 2LL * 10 * 10 * 32 * 2 * 16 * 9);
    EXPECT_EQ(l.OutputBytes(full), 2LL * 10 * 10 * 32);
    EXPECT_EQ(l.PerSampleOutputBytes(), 100LL * 32);
}

TEST(Layer, InputBytesUsesProducerChannels)
{
    Layer l("eltwise", LayerKind::kEltwise, 8, 4, 4);
    InputRef ref{0, AccessPattern::kRowAligned, {}};
    Region out{0, 1, 0, 4, 0, 4};
    EXPECT_EQ(l.InputBytes(ref, out, 8, 4, 4), 16LL * 8);
}

TEST(Graph, ConsumersAndEdges)
{
    GraphBuilder b("t", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 8, 8}, 8, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 8, 3, 1, 1);
    LayerId add = b.Eltwise("add", {c1, c2});
    Graph g = b.Take();

    EXPECT_EQ(g.NumLayers(), 3);
    EXPECT_EQ(g.Consumers(c1).size(), 2u);
    EXPECT_EQ(g.Consumers(c2).size(), 1u);
    EXPECT_EQ(g.Consumers(add).size(), 0u);
    EXPECT_EQ(g.AllEdges().size(), 3u);
}

/** The consumer index a full rebuild from AllEdges() produces:
 *  per-producer lists ordered by (consumer, input slot). */
std::vector<std::vector<Edge>>
RebuiltConsumers(const Graph &g)
{
    std::vector<std::vector<Edge>> index(g.NumLayers());
    for (const Edge &e : g.AllEdges()) index[e.producer].push_back(e);
    return index;
}

void
ExpectConsumersMatchRebuild(const Graph &g)
{
    const auto index = RebuiltConsumers(g);
    for (LayerId id = 0; id < g.NumLayers(); ++id) {
        const auto &got = g.Consumers(id);
        ASSERT_EQ(got.size(), index[id].size()) << id;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].producer, index[id][i].producer);
            EXPECT_EQ(got[i].consumer, index[id][i].consumer);
            EXPECT_EQ(got[i].input_index, index[id][i].input_index);
        }
    }
}

TEST(Graph, ConcurrentConsumersOnAFreshGraph)
{
    // The service's graph cache hands one const Graph to concurrent
    // requests, so the very first Consumers() calls can come from
    // several threads at once (the TSan CI leg checks for races).
    GraphBuilder b("chain", 1);
    LayerId prev = b.InputConv("c0", ExtShape{3, 8, 8}, 8, 3, 1, 1);
    for (int i = 1; i < 32; ++i) {
        LayerId next = b.Conv("c" + std::to_string(i), prev, 8, 3, 1, 1);
        prev = b.Eltwise("e" + std::to_string(i), {prev, next});
    }
    const Graph g = b.Take();
    const std::size_t edges = g.AllEdges().size();

    std::vector<std::thread> threads;
    std::vector<std::size_t> seen(4, 0);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&g, &seen, t] {
            for (LayerId id = 0; id < g.NumLayers(); ++id)
                seen[t] += g.Consumers(id).size();
        });
    }
    for (std::thread &th : threads) th.join();
    for (std::size_t n : seen) EXPECT_EQ(n, edges);
    ExpectConsumersMatchRebuild(g);
}

TEST(Graph, AddInputKeepsConsumerIndexCoherent)
{
    GraphBuilder b("t", 1);
    LayerId a = b.InputConv("a", ExtShape{3, 8, 8}, 8, 3, 1, 1);
    LayerId c = b.Conv("c", a, 8, 3, 1, 1);
    LayerId d = b.Eltwise("d", {a, c});
    Graph g = b.Take();
    ExpectConsumersMatchRebuild(g);

    // A second edge a -> c lands between (a, c, 0) and (a, d, 0); an
    // external input adds no edge.
    g.AddInput(c, InputRef{a, AccessPattern::kFull, {}});
    g.AddInput(d, InputRef{kNoLayer, AccessPattern::kFull, {3, 8, 8}});
    ASSERT_EQ(g.Consumers(a).size(), 3u);
    EXPECT_EQ(g.Consumers(a)[1].consumer, c);
    EXPECT_EQ(g.Consumers(a)[1].input_index, 1);
    ExpectConsumersMatchRebuild(g);
}

TEST(GraphDeathTest, ProducerIdMustBeBelowConsumerInEveryBuild)
{
    // TopoOrder() and the parser's canonical group order rely on every
    // producer id being below its consumers': a hand-built graph that
    // breaks the rule dies at construction, in Release builds too.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    auto self_input = [] {
        Graph g("bad", 1);
        Layer l("a", LayerKind::kConv, 8, 8, 8);
        l.addInput(InputRef{0, AccessPattern::kRowAligned, {}});
        g.AddLayer(std::move(l));
    };
    EXPECT_DEATH(self_input(), "topological order");

    auto later_producer = [] {
        GraphBuilder b("bad", 1);
        LayerId a = b.InputConv("a", ExtShape{3, 8, 8}, 8, 3, 1, 1);
        LayerId c = b.Conv("c", a, 8, 3, 1, 1);
        Graph g = b.Take();
        g.AddInput(a, InputRef{c, AccessPattern::kFull, {}});
    };
    EXPECT_DEATH(later_producer(), "topological order");
}

TEST(Graph, ValidOrderChecks)
{
    GraphBuilder b("t", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 8, 8}, 8, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 8, 3, 1, 1);
    LayerId c3 = b.Conv("c3", c1, 8, 3, 1, 1);
    Graph g = b.Take();

    EXPECT_TRUE(g.IsValidOrder({c1, c2, c3}));
    EXPECT_TRUE(g.IsValidOrder({c1, c3, c2}));  // c2, c3 independent
    EXPECT_FALSE(g.IsValidOrder({c2, c1, c3}));
    EXPECT_FALSE(g.IsValidOrder({c1, c2}));        // wrong arity
    EXPECT_FALSE(g.IsValidOrder({c1, c1, c2}));    // duplicate
}

TEST(Graph, Totals)
{
    GraphBuilder b("t", 2);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 8, 8}, 8, 3, 1, 1);
    (void)c1;
    Graph g = b.Take();
    // ops: 2 * batch(2) * 8x8 sites * 8 channels * (2*3*9)
    EXPECT_EQ(g.TotalOps(), 2LL * 64 * 8 * (2 * 3 * 9));
    EXPECT_EQ(g.TotalWeightBytes(), 8LL * 3 * 9);
    EXPECT_EQ(g.TotalFmapBytes(), 2LL * 64 * 8);
    EXPECT_EQ(g.TotalMatrixOps(), g.TotalOps());
}

TEST(GraphBuilder, ConvShapeMath)
{
    GraphBuilder b("t", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 224, 224}, 64, 7, 2, 3);
    EXPECT_EQ(b.H(c1), 112);
    EXPECT_EQ(b.W(c1), 112);
    LayerId p = b.Pool("p", c1, 3, 2, 1);
    EXPECT_EQ(b.H(p), 56);
    LayerId g = b.GlobalPool("g", p);
    EXPECT_EQ(b.H(g), 1);
    EXPECT_EQ(b.C(g), 64);
}

TEST(GraphBuilder, ConcatSumsChannels)
{
    GraphBuilder b("t", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 8, 8}, 8, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 16, 1, 1, 0);
    LayerId c3 = b.Conv("c3", c1, 24, 1, 1, 0);
    LayerId cat = b.Concat("cat", {c2, c3});
    EXPECT_EQ(b.C(cat), 40);
}

TEST(GraphBuilder, MatmulOperandPatterns)
{
    GraphBuilder b("t", 1);
    LayerId q = b.InputConv("q", ExtShape{3, 8, 8}, 8, 1, 1, 0);
    LayerId k = b.Conv("k", q, 8, 1, 1, 0);
    LayerId mm = b.Matmul("mm", q, k, 8, 64);
    Graph g = b.Take();
    const Layer &l = g.layer(mm);
    ASSERT_EQ(l.inputs().size(), 2u);
    EXPECT_EQ(l.inputs()[0].pattern, AccessPattern::kRowAligned);
    EXPECT_EQ(l.inputs()[1].pattern, AccessPattern::kFull);
    EXPECT_EQ(l.opsPerElement(), 16);
}

TEST(GraphBuilder, DepthwiseConvWeights)
{
    GraphBuilder b("t", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 8, 8}, 16, 3, 1, 1);
    LayerId dw = b.Conv("dw", c1, 16, 3, 1, 1, /*groups=*/16);
    Graph g = b.Take();
    EXPECT_EQ(g.layer(dw).kind(), LayerKind::kDepthwise);
    EXPECT_EQ(g.layer(dw).weightBytes(), 16LL * 9);
    EXPECT_EQ(g.layer(dw).opsPerElement(), 2LL * 9);
}

}  // namespace
}  // namespace soma

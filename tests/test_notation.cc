/**
 * @file
 * Tensor-centric Notation tests: encoding structure, FLG/LG queries,
 * structural validity rules, and the unfused starting point.
 */
#include <gtest/gtest.h>

#include "notation/encoding.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

Graph
MakeFiveLayer()
{
    // Mirrors the paper's Fig. 4 topology: A -> B -> {C -> E -> D}, with
    // C a pooling layer.
    GraphBuilder b("fig4", 1);
    LayerId a = b.InputConv("A", ExtShape{3, 16, 16}, 8, 3, 1, 1);
    LayerId bb = b.Conv("B", a, 8, 3, 1, 1);
    LayerId c = b.Pool("C", bb, 2, 2, 0);
    LayerId e = b.Conv("E", c, 8, 3, 1, 1);
    LayerId d = b.Conv("D", e, 8, 3, 1, 1);
    b.MarkOutput(d);
    return b.Take();
}

TEST(LfaEncoding, FlgRangesAndMembership)
{
    Graph g = MakeFiveLayer();
    LfaEncoding lfa;
    lfa.order = {0, 1, 2, 3, 4};
    lfa.flc_cuts = {1, 2};
    lfa.dram_cuts = {2};
    lfa.tiling = {2, 1, 2};

    EXPECT_EQ(lfa.NumFlgs(), 3);
    EXPECT_EQ(lfa.NumLgs(), 2);

    int begin, end;
    lfa.FlgRange(0, &begin, &end);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 1);
    lfa.FlgRange(2, &begin, &end);
    EXPECT_EQ(begin, 2);
    EXPECT_EQ(end, 5);

    EXPECT_EQ(lfa.FlgOfPos(0), 0);
    EXPECT_EQ(lfa.FlgOfPos(1), 1);
    EXPECT_EQ(lfa.FlgOfPos(4), 2);

    EXPECT_EQ(lfa.FlgLayers(2), (std::vector<LayerId>{2, 3, 4}));
    EXPECT_TRUE(lfa.StructurallyValid(g));
}

TEST(LfaEncoding, ValidityRejectsBadOrder)
{
    Graph g = MakeFiveLayer();
    LfaEncoding lfa;
    lfa.order = {1, 0, 2, 3, 4};  // B before A violates dependency
    lfa.tiling = {1};
    std::string why;
    EXPECT_FALSE(lfa.StructurallyValid(g, &why));
    EXPECT_EQ(why, "order violates deps");
}

TEST(LfaEncoding, ValidityRejectsBadCuts)
{
    Graph g = MakeFiveLayer();
    LfaEncoding lfa;
    lfa.order = {0, 1, 2, 3, 4};

    lfa.flc_cuts = {2, 1};  // unsorted
    lfa.tiling = {1, 1, 1};
    EXPECT_FALSE(lfa.StructurallyValid(g));

    lfa.flc_cuts = {0};  // out of range
    lfa.tiling = {1, 1};
    EXPECT_FALSE(lfa.StructurallyValid(g));

    lfa.flc_cuts = {5};  // out of range
    EXPECT_FALSE(lfa.StructurallyValid(g));
}

TEST(LfaEncoding, ValidityRequiresDramSubsetOfFlc)
{
    Graph g = MakeFiveLayer();
    LfaEncoding lfa;
    lfa.order = {0, 1, 2, 3, 4};
    lfa.flc_cuts = {2};
    lfa.dram_cuts = {1};  // not an FLC
    lfa.tiling = {1, 1};
    std::string why;
    EXPECT_FALSE(lfa.StructurallyValid(g, &why));
    EXPECT_EQ(why, "dram cut not in flc set");
}

TEST(LfaEncoding, ValidityChecksTilingArity)
{
    Graph g = MakeFiveLayer();
    LfaEncoding lfa;
    lfa.order = {0, 1, 2, 3, 4};
    lfa.flc_cuts = {2};
    lfa.tiling = {1};  // needs 2
    EXPECT_FALSE(lfa.StructurallyValid(g));
    lfa.tiling = {1, 0};  // tiling < 1
    EXPECT_FALSE(lfa.StructurallyValid(g));
}

TEST(LfaEncoding, IndependentLayersMayReorder)
{
    // In Fig. 4 the paper notes D and E may swap but A and B may not.
    GraphBuilder b("dag", 1);
    LayerId a = b.InputConv("A", ExtShape{3, 8, 8}, 8, 3, 1, 1);
    LayerId d = b.Conv("D", a, 8, 3, 1, 1);
    LayerId e = b.Conv("E", a, 8, 3, 1, 1);
    (void)d;
    (void)e;
    Graph g = b.Take();
    LfaEncoding lfa;
    lfa.tiling = {1};
    lfa.order = {0, 1, 2};
    EXPECT_TRUE(lfa.StructurallyValid(g));
    lfa.order = {0, 2, 1};
    EXPECT_TRUE(lfa.StructurallyValid(g));
    lfa.order = {1, 0, 2};
    EXPECT_FALSE(lfa.StructurallyValid(g));
}

TEST(LfaEncoding, MakeUnfused)
{
    Graph g = MakeFiveLayer();
    LfaEncoding lfa = MakeUnfusedLfa(g, {1, 2, 4, 8, 16});
    EXPECT_TRUE(lfa.StructurallyValid(g));
    EXPECT_EQ(lfa.NumFlgs(), 5);
    EXPECT_EQ(lfa.NumLgs(), 5);
    EXPECT_EQ(lfa.tiling, (std::vector<int>{1, 2, 4, 8, 16}));
}

TEST(LfaEncoding, ToStringShowsCutsAndTiling)
{
    Graph g = MakeFiveLayer();
    LfaEncoding lfa;
    lfa.order = {0, 1, 2, 3, 4};
    lfa.flc_cuts = {1, 2};
    lfa.dram_cuts = {2};
    lfa.tiling = {2, 1, 2};
    std::string s = lfa.ToString(g);
    EXPECT_NE(s.find("A"), std::string::npos);
    EXPECT_NE(s.find(" | "), std::string::npos);   // FLC
    EXPECT_NE(s.find(" || "), std::string::npos);  // DRAM cut
    EXPECT_NE(s.find("{2,1,2}"), std::string::npos);
}

TEST(LfaEncoding, ToStringOnEmptyIsSafe)
{
    Graph g = MakeFiveLayer();
    LfaEncoding empty;
    EXPECT_EQ(empty.ToString(g), "<empty>");
}

}  // namespace
}  // namespace soma

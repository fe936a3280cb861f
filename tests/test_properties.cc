/**
 * @file
 * Property-based tests (parameterized sweeps): invariants that must hold
 * for every tile split, every random walk through the encoding space,
 * and every workload in the zoo.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "baselines/cocco.h"
#include "corearray/core_array.h"
#include "search/dlsa_heuristics.h"
#include "search/lfa_stage.h"
#include "search/soma.h"
#include "sim/evaluator.h"
#include "tiling/tiler.h"
#include "workload/graph_builder.h"
#include "workload/models.h"

namespace soma {
namespace {

// ---------------------------------------------------------------------
// Tile split properties: for every (tiles, batch, h, w) combination, a
// feasible split factorizes exactly and its slices partition the fmap.
// ---------------------------------------------------------------------

class TileSplitProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(TileSplitProperty, FactorizesAndPartitions)
{
    auto [tiles, batch, h, w] = GetParam();
    auto split = ChooseTileSplit(tiles, batch, h, w);
    if (!split) {
        // Infeasibility must be real: no factorization b*r*c == tiles
        // with b <= batch, r <= h, c <= w exists.
        for (int bb = 1; bb <= std::min(tiles, batch); ++bb) {
            if (tiles % bb) continue;
            int rem = tiles / bb;
            for (int r = 1; r <= std::min(rem, h); ++r) {
                if (rem % r) continue;
                EXPECT_GT(rem / r, w)
                    << "feasible split missed: " << bb << "x" << r << "x"
                    << rem / r;
            }
        }
        return;
    }
    EXPECT_EQ(split->Total(), tiles);
    EXPECT_LE(split->batch, batch);
    EXPECT_LE(split->rows, h);
    EXPECT_LE(split->cols, w);

    std::int64_t covered = 0;
    for (int i = 0; i < tiles; ++i) {
        Region r = CanonicalSlice(*split, i, batch, h, w);
        EXPECT_FALSE(r.Empty());
        covered += r.Sites();
    }
    EXPECT_EQ(covered, static_cast<std::int64_t>(batch) * h * w);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TileSplitProperty,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16, 64),
                       ::testing::Values(1, 3, 8),
                       ::testing::Values(1, 7, 56),
                       ::testing::Values(1, 7, 56)));

// ---------------------------------------------------------------------
// Halo monotonicity: on a conv chain, total computed work never shrinks
// as the Tiling Number grows (recompute model).
// ---------------------------------------------------------------------

class HaloProperty : public ::testing::TestWithParam<int> {};

TEST_P(HaloProperty, RecomputeGrowsWithTiling)
{
    int tiles = GetParam();
    GraphBuilder b("chain", 1);
    LayerId c1 = b.InputConv("c1", ExtShape{8, 32, 32}, 16, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 16, 3, 1, 1);
    LayerId c3 = b.Conv("c3", c2, 16, 3, 1, 1);
    b.MarkOutput(c3);
    Graph g = b.Take();

    FlgTiling t1 = ComputeFlgTiling(g, {0, 1, 2}, 1);
    FlgTiling tn = ComputeFlgTiling(g, {0, 1, 2}, tiles);
    ASSERT_TRUE(t1.valid);
    ASSERT_TRUE(tn.valid);
    auto total_sites = [](const FlgTiling &t) {
        std::int64_t s = 0;
        for (const auto &layer : t.regions)
            for (const Region &r : layer) s += r.Sites();
        return s;
    };
    EXPECT_GE(total_sites(tn), total_sites(t1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, HaloProperty,
                         ::testing::Values(2, 4, 8, 16));

// ---------------------------------------------------------------------
// Random-walk property: any chain of LFA operators starting from the
// initial solution stays structurally valid; every valid parse obeys
// the evaluator's physical invariants.
// ---------------------------------------------------------------------

class EncodingWalkProperty : public ::testing::TestWithParam<int> {};

TEST_P(EncodingWalkProperty, MutationsPreserveValidityAndPhysics)
{
    const int seed = GetParam();
    GraphBuilder b("walknet", 2);
    LayerId c1 = b.InputConv("c1", ExtShape{3, 32, 32}, 16, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 16, 3, 1, 1);
    LayerId add = b.Eltwise("add", {c1, c2});
    LayerId c3 = b.Conv("c3", add, 32, 3, 2, 1);
    LayerId c4 = b.Conv("c4", c3, 32, 3, 1, 1);
    b.MarkOutput(c4);
    Graph g = b.Take();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    Rng rng(seed);

    LfaEncoding cur = MakeInitialLfa(g, hw, 64);
    int evaluated = 0;
    for (int step = 0; step < 60; ++step) {
        LfaEncoding next;
        if (!MutateLfaEncoding(g, cur, &next, 64, rng)) continue;
        ASSERT_TRUE(next.StructurallyValid(g)) << "step " << step;
        cur = next;

        ParsedSchedule p = ParseLfa(g, cur, eval);
        if (!p.valid) continue;  // infeasible tiling is a legal outcome
        DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
        EvalReport r = EvaluateSchedule(g, hw, p, dlsa, hw.gbuf_bytes,
                                        g.TotalOps());
        if (!r.valid) continue;  // budget overflow is a legal outcome
        ++evaluated;

        EXPECT_GE(r.latency, r.compute_busy - 1e-12);
        EXPECT_GE(r.latency, r.dram_busy - 1e-12);
        EXPECT_LE(r.compute_util, r.theory_max_util + 1e-9);
        EXPECT_GE(static_cast<double>(r.peak_buffer), r.avg_buffer);
        EXPECT_GT(r.EnergyJ(), 0.0);
        EXPECT_EQ(r.peak_buffer, PeakBufferUsage(p, dlsa));
    }
    EXPECT_GT(evaluated, 5) << "walk never reached feasible schemes";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingWalkProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------
// Fusion monotonicity: on a linear chain, DRAM traffic is monotone in
// the number of DRAM cuts.
// ---------------------------------------------------------------------

class FusionProperty : public ::testing::TestWithParam<int> {};

TEST_P(FusionProperty, MoreCutsMoreTraffic)
{
    const int cuts = GetParam();
    GraphBuilder b("chain", 1);
    LayerId prev = b.InputConv("l0", ExtShape{8, 32, 32}, 16, 3, 1, 1);
    for (int i = 1; i < 6; ++i)
        prev = b.Conv("l" + std::to_string(i), prev, 16, 3, 1, 1);
    b.MarkOutput(prev);
    Graph g = b.Take();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);

    auto traffic_with_cuts = [&](int k) {
        LfaEncoding lfa;
        lfa.order = g.TopoOrder();
        for (int c = 1; c <= k; ++c) {
            lfa.flc_cuts.push_back(c);
            lfa.dram_cuts.push_back(c);
        }
        lfa.tiling.assign(k + 1, 1);
        ParsedSchedule p = ParseLfa(g, lfa, eval);
        EXPECT_TRUE(p.valid);
        return p.dram_bytes;
    };

    EXPECT_GE(traffic_with_cuts(cuts), traffic_with_cuts(0));
    if (cuts >= 2) {
        EXPECT_GE(traffic_with_cuts(cuts), traffic_with_cuts(cuts - 1));
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusionProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// Zoo-wide parse property: the heuristic initial encoding of every
// model parses, and its tensors satisfy the structural contracts.
// ---------------------------------------------------------------------

class ZooProperty : public ::testing::TestWithParam<const char *> {};

TEST_P(ZooProperty, InitialEncodingParsesWithContracts)
{
    Graph g = BuildModelByName(GetParam(), 1);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa = MakeInitialLfa(g, hw, 64);
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    ASSERT_TRUE(p.valid) << p.why_invalid;

    EXPECT_EQ(p.num_lgs, g.NumLayers());
    EXPECT_GE(p.NumTiles(), g.NumLayers());
    for (int j = 0; j < p.NumTensors(); ++j) {
        const DramTensor &t = p.tensors[j];
        EXPECT_GT(t.bytes, 0);
        EXPECT_GE(t.first_use, 0);
        EXPECT_LT(t.first_use, p.NumTiles());
        if (t.IsLoad()) {
            EXPECT_GT(t.fixed_end, t.first_use);
            EXPECT_LE(t.fixed_end, p.NumTiles());
        }
        EXPECT_LE(p.FreePointMin(j), p.FreePointMax(j));
    }
    for (const TileInfo &tile : p.tiles) {
        EXPECT_FALSE(tile.region.Empty());
        EXPECT_GE(tile.cost.seconds, 0.0);
    }
    // Weight bytes on DRAM tensors must cover the network's weights
    // exactly once.
    Bytes weight_bytes = 0;
    for (const DramTensor &t : p.tensors) {
        if (t.kind == DramTensorKind::kWeight) weight_bytes += t.bytes;
    }
    EXPECT_EQ(weight_bytes, g.TotalWeightBytes());
}

INSTANTIATE_TEST_SUITE_P(Models, ZooProperty,
                         ::testing::Values("resnet50", "ires", "randwire",
                                           "gpt2s-prefill",
                                           "gpt2s-decode"));

// ---------------------------------------------------------------------
// Cross-scheme property: for every model, SoMa's searched scheme never
// moves more DRAM bytes than the unfused baseline.
// ---------------------------------------------------------------------

class TrafficProperty : public ::testing::TestWithParam<const char *> {};

TEST_P(TrafficProperty, SearchNeverAddsDramTraffic)
{
    Graph g = BuildModelByName(GetParam(), 1);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding init = MakeInitialLfa(g, hw, 64);
    ParsedSchedule p0 = ParseLfa(g, init, eval);
    ASSERT_TRUE(p0.valid);

    SomaOptions opts = SomaOptionsFor(SearchProfile::kQuick, 31);
    SearchResult res = RunSoma(g, hw, opts);
    ASSERT_TRUE(res.report.valid);
    EXPECT_LE(res.report.dram_bytes, p0.dram_bytes);
}

INSTANTIATE_TEST_SUITE_P(Models, TrafficProperty,
                         ::testing::Values("resnet50", "randwire"));

}  // namespace
}  // namespace soma

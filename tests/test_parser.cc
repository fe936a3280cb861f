/**
 * @file
 * Parser tests built around the paper's Fig. 4 five-layer example:
 * tile sequences, DRAM tensor enumeration, on-chip intervals, Living
 * Duration bounds, Cocco weight-residency semantics, load dedup, and
 * DLSA validity rules.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <type_traits>

#include "common/hash.h"
#include "corearray/core_array.h"
#include "notation/parser.h"
#include "search/dlsa_heuristics.h"
#include "search/lfa_stage.h"
#include "sim/eval_context.h"
#include "workload/graph_builder.h"
#include "workload/models.h"

namespace soma {
namespace {

/**
 * The Fig. 4 topology: A -> B -> C (pool); C -> E; C -> D; E and D are
 * network outputs (their Living Durations end at END in the paper).
 */
Graph
MakeFig4()
{
    GraphBuilder b("fig4", 1);
    LayerId a = b.InputConv("A", ExtShape{3, 16, 16}, 8, 3, 1, 1);
    LayerId bb = b.Conv("B", a, 8, 3, 1, 1);
    LayerId c = b.Pool("C", bb, 2, 2, 0);
    LayerId e = b.Conv("E", c, 8, 3, 1, 1);
    LayerId d = b.Conv("D", c, 8, 3, 1, 1);
    b.MarkOutput(e);
    b.MarkOutput(d);
    return b.Take();
}

/** The exact encoding of Fig. 4: [A | B || C,E,D]{2,1,2}, DRAM cut {2}. */
LfaEncoding
Fig4Encoding()
{
    LfaEncoding lfa;
    lfa.order = {0, 1, 2, 3, 4};
    lfa.flc_cuts = {1, 2};
    lfa.dram_cuts = {2};
    lfa.tiling = {2, 1, 2};
    return lfa;
}

class ParserTest : public ::testing::Test {
  protected:
    ParserTest() : graph_(MakeFig4()), hw_(EdgeAccelerator()),
                   eval_(graph_, hw_) {}
    Graph graph_;
    HardwareConfig hw_;
    CoreArrayEvaluator eval_;
};

TEST_F(ParserTest, Fig4TileSequence)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    ASSERT_TRUE(p.valid) << p.why_invalid;
    // A1 A2 B C1 E1 D1 C2 E2 D2 (paper's COMPUTE row).
    ASSERT_EQ(p.NumTiles(), 9);
    const char *expect[] = {"A", "A", "B", "C", "E", "D", "C", "E", "D"};
    const int rounds[] = {0, 1, 0, 0, 0, 0, 1, 1, 1};
    for (int i = 0; i < 9; ++i) {
        EXPECT_EQ(graph_.layer(p.tiles[i].layer).name(), expect[i])
            << "tile " << i;
        EXPECT_EQ(p.tiles[i].round, rounds[i]) << "tile " << i;
    }
    EXPECT_EQ(p.num_flgs, 3);
    EXPECT_EQ(p.num_lgs, 2);
    // LG membership: A, B in LG0, the rest LG1.
    EXPECT_EQ(p.tiles[0].lg, 0);
    EXPECT_EQ(p.tiles[2].lg, 0);
    EXPECT_EQ(p.tiles[3].lg, 1);
}

TEST_F(ParserTest, Fig4DramTensorInventory)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    ASSERT_TRUE(p.valid);
    // Paper's list: IA1 IA2 WA WB OB WD IC1 IC2 WE OE1 OD1 OE2 OD2 = 13.
    EXPECT_EQ(p.NumTensors(), 13);
    int weights = 0, ifmaps = 0, ofmaps = 0;
    for (const DramTensor &t : p.tensors) {
        switch (t.kind) {
          case DramTensorKind::kWeight: ++weights; break;
          case DramTensorKind::kIfmap: ++ifmaps; break;
          case DramTensorKind::kOfmap: ++ofmaps; break;
        }
    }
    EXPECT_EQ(weights, 4);  // WA WB WE WD (pool C has none)
    EXPECT_EQ(ifmaps, 4);   // IA1 IA2 IC1 IC2
    EXPECT_EQ(ofmaps, 5);   // OB OE1 OE2 OD1 OD2
}

TEST_F(ParserTest, Fig4OnchipIntervals)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    ASSERT_TRUE(p.valid);
    // A->B aggregates across FLGs (1 interval), C->{E,D} rolls per round
    // (2 intervals).
    ASSERT_EQ(p.onchip.size(), 3u);
    // The aggregated A interval spans from A's first tile to B.
    const OnchipInterval *agg = nullptr;
    for (const auto &iv : p.onchip) {
        if (iv.producer == 0) agg = &iv;
    }
    ASSERT_NE(agg, nullptr);
    EXPECT_EQ(agg->from, 0);
    EXPECT_EQ(agg->to, 3);  // B is tile 2; held through [0, 3)
    EXPECT_EQ(agg->bytes, graph_.layer(0).PerSampleOutputBytes());
}

TEST_F(ParserTest, WeightLifetimes)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    for (const DramTensor &t : p.tensors) {
        if (t.kind != DramTensorKind::kWeight) continue;
        const std::string &name = graph_.layer(t.layer).name();
        if (name == "A") {
            EXPECT_EQ(t.first_use, 0);
            EXPECT_EQ(t.fixed_end, 2);  // released after A's last tile
        } else if (name == "E") {
            EXPECT_EQ(t.first_use, 4);
            EXPECT_EQ(t.fixed_end, 8);  // E's last tile is pos 7
        }
    }
}

TEST_F(ParserTest, CoccoSemanticsHoldWeightsToLgEnd)
{
    ParseOptions popts{/*lg_resident_weights=*/true};
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_, popts);
    for (const DramTensor &t : p.tensors) {
        if (t.kind != DramTensorKind::kWeight) continue;
        const std::string &name = graph_.layer(t.layer).name();
        if (name == "A" || name == "B") {
            EXPECT_EQ(t.fixed_end, 3) << name;  // LG0 = tiles [0,3)
        } else {
            EXPECT_EQ(t.fixed_end, 9) << name;  // LG1 = tiles [3,9)
        }
    }
}

TEST_F(ParserTest, CanonicalOrderSortedByNeed)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    for (int j = 1; j < p.NumTensors(); ++j) {
        EXPECT_LE(p.tensors[j - 1].first_use, p.tensors[j].first_use);
    }
    // Weight-before-ifmap at the same position.
    EXPECT_EQ(p.tensors[0].kind, DramTensorKind::kWeight);  // WA before IA1
}

TEST_F(ParserTest, NeedLoadsAttachedAtFirstUse)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    auto loads = [&](int i) {
        return p.tiles[i].load_end - p.tiles[i].load_begin;
    };
    // Tile 0 (A round 0) needs WA and IA1.
    EXPECT_EQ(loads(0), 2);
    // Tile 2 (B) needs WB only (reads A on-chip).
    ASSERT_EQ(loads(2), 1);
    EXPECT_EQ(p.tensors[p.tiles[2].load_begin].kind,
              DramTensorKind::kWeight);
    // Tile 3 (C round 0) needs IC1 only (pool has no weights).
    ASSERT_EQ(loads(3), 1);
    EXPECT_EQ(p.tensors[p.tiles[3].load_begin].kind,
              DramTensorKind::kIfmap);
    // Every load is attached to exactly the tile at its first use.
    for (int i = 0; i < p.NumTiles(); ++i) {
        for (int j = p.tiles[i].load_begin; j < p.tiles[i].load_end; ++j) {
            EXPECT_TRUE(p.tensors[j].IsLoad());
            EXPECT_EQ(p.tensors[j].first_use, i);
        }
    }
}

TEST_F(ParserTest, FreePointRanges)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    for (int j = 0; j < p.NumTensors(); ++j) {
        const DramTensor &t = p.tensors[j];
        if (t.IsLoad()) {
            EXPECT_EQ(p.FreePointMin(j), 0);
            EXPECT_EQ(p.FreePointMax(j), t.first_use);
        } else {
            EXPECT_EQ(p.FreePointMin(j), t.first_use + 1);
            EXPECT_EQ(p.FreePointMax(j), p.NumTiles());
        }
    }
}

TEST_F(ParserTest, FusionReducesDramTraffic)
{
    // Fully fused (single LG) vs fully unfused.
    LfaEncoding fused;
    fused.order = {0, 1, 2, 3, 4};
    fused.tiling = {1};
    ParsedSchedule pf = ParseLfa(graph_, fused, eval_);
    ASSERT_TRUE(pf.valid);

    LfaEncoding unfused = MakeUnfusedLfa(graph_, {1, 1, 1, 1, 1});
    ParsedSchedule pu = ParseLfa(graph_, unfused, eval_);
    ASSERT_TRUE(pu.valid);

    EXPECT_LT(pf.dram_bytes, pu.dram_bytes);
    // Fused: 4 weights + 1 input + 2 outputs = 7 tensors.
    EXPECT_EQ(pf.NumTensors(), 7);
}

TEST_F(ParserTest, InvalidTilingReported)
{
    LfaEncoding lfa;
    lfa.order = {0, 1, 2, 3, 4};
    lfa.tiling = {4096};  // cannot split 16x16 into 4096 spatial tiles
    ParsedSchedule p = ParseLfa(graph_, lfa, eval_);
    EXPECT_FALSE(p.valid);
    EXPECT_NE(p.why_invalid.find("tiling"), std::string::npos);
}

TEST_F(ParserTest, StructurallyInvalidEncodingReported)
{
    LfaEncoding lfa;
    lfa.order = {1, 0, 2, 3, 4};
    lfa.tiling = {1};
    ParsedSchedule p = ParseLfa(graph_, lfa, eval_);
    EXPECT_FALSE(p.valid);
}

TEST(ParserDedup, IdenticalFullLoadsMergeAcrossRounds)
{
    // A matmul whose B operand is an external kFull tensor: with T > 1
    // every round needs the identical region -> one load, longer life.
    GraphBuilder b("attn", 1);
    Layer q("q", LayerKind::kGemm, 8, 16, 1);
    q.setOpsPerElement(6);
    q.setWeightBytes(64);
    q.addInput(InputRef{kNoLayer, AccessPattern::kRowAligned,
                        ExtShape{3, 16, 1}});
    LayerId qid = b.graph().AddLayer(std::move(q));
    LayerId mm = b.Matmul("mm", qid, qid, 8, 16);
    b.AddExternalInput(mm, ExtShape{8, 32, 1});  // KV-cache-like
    b.MarkOutput(mm);
    Graph g = b.Take();

    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = {0, 1};
    lfa.tiling = {4};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    ASSERT_TRUE(p.valid) << p.why_invalid;

    int ext_loads = 0;
    for (const DramTensor &t : p.tensors) {
        if (t.kind == DramTensorKind::kIfmap && t.layer == mm &&
            t.input_index == 2) {
            ++ext_loads;
            EXPECT_EQ(t.bytes, 8LL * 32);
            // Held until the last round's tile.
            EXPECT_EQ(t.fixed_end, p.NumTiles());
        }
    }
    EXPECT_EQ(ext_loads, 1);
}

TEST_F(ParserTest, DlsaValidationCatchesCorruption)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
    EXPECT_TRUE(DlsaValid(p, dlsa));

    DlsaEncoding bad = dlsa;
    bad.order.pop_back();
    EXPECT_FALSE(DlsaValid(p, bad));  // arity

    bad = dlsa;
    bad.order[0] = bad.order[1];
    EXPECT_FALSE(DlsaValid(p, bad));  // not a permutation

    bad = dlsa;
    bad.free_point[0] = -1;
    EXPECT_FALSE(DlsaValid(p, bad));  // out of range
}

TEST_F(ParserTest, DlsaValidationEnforcesStoreBeforeLoad)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);

    // Find OB (store of B) and IC1 (load reading B) and swap them so the
    // load precedes the store.
    int ob_rank = -1, ic_rank = -1;
    for (int r = 0; r < p.NumTensors(); ++r) {
        const DramTensor &t = p.tensors[dlsa.order[r]];
        if (t.kind == DramTensorKind::kOfmap &&
            graph_.layer(t.layer).name() == "B") {
            ob_rank = r;
        }
        if (t.kind == DramTensorKind::kIfmap && t.src_layer == 1 &&
            ic_rank < 0) {
            ic_rank = r;
        }
    }
    ASSERT_GE(ob_rank, 0);
    ASSERT_GE(ic_rank, 0);
    ASSERT_LT(ob_rank, ic_rank);
    std::swap(dlsa.order[ob_rank], dlsa.order[ic_rank]);
    EXPECT_FALSE(DlsaValid(p, dlsa));
}

TEST_F(ParserTest, LabelsFollowPaperConvention)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    bool saw_weight = false, saw_ifmap = false, saw_ofmap = false;
    for (const DramTensor &t : p.tensors) {
        std::string label = t.Label(graph_);
        switch (t.kind) {
          case DramTensorKind::kWeight:
            EXPECT_EQ(label.rfind("W:", 0), 0u);
            saw_weight = true;
            break;
          case DramTensorKind::kIfmap:
            EXPECT_EQ(label.rfind("I:", 0), 0u);
            saw_ifmap = true;
            break;
          case DramTensorKind::kOfmap:
            EXPECT_EQ(label.rfind("O:", 0), 0u);
            saw_ofmap = true;
            break;
        }
    }
    EXPECT_TRUE(saw_weight && saw_ifmap && saw_ofmap);
}

/** FNV-1a over the little-endian bytes of fixed-width fields. */
class Digest {
  public:
    template <typename T>
    void Add(T value)
    {
        static_assert(std::is_arithmetic<T>::value, "scalar fields only");
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (unsigned char b : bytes) {
            hash_ ^= b;
            hash_ *= 1099511628211ULL;
        }
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 1469598103934665603ULL;
};

/** Every tile (with its load ids in order), tensor and on-chip
 *  interval of @p p, in order. */
void
DigestParse(const ParsedSchedule &p, Digest *d)
{
    d->Add<std::int32_t>(p.valid);
    d->Add<std::int64_t>(static_cast<std::int64_t>(p.why_invalid.size()));
    d->Add<std::int32_t>(p.num_flgs);
    d->Add<std::int32_t>(p.num_lgs);
    d->Add<std::int64_t>(p.NumTiles());
    for (const TileInfo &t : p.tiles) {
        d->Add<std::int32_t>(t.layer);
        d->Add<std::int32_t>(t.flg);
        d->Add<std::int32_t>(t.lg);
        d->Add<std::int32_t>(t.round);
        for (int v : {t.region.b0, t.region.b1, t.region.r0, t.region.r1,
                      t.region.c0, t.region.c1})
            d->Add<std::int32_t>(v);
        d->Add(t.cost.seconds);
        d->Add(t.cost.energy_pj);
        d->Add<std::int64_t>(t.cost.ops);
        d->Add<std::int64_t>(t.cost.gbuf_traffic);
        d->Add<std::int64_t>(t.load_end - t.load_begin);
        for (int j = t.load_begin; j < t.load_end; ++j)
            d->Add<std::int32_t>(j);
    }
    d->Add<std::int64_t>(p.NumTensors());
    for (const DramTensor &t : p.tensors) {
        d->Add<std::int32_t>(static_cast<std::int32_t>(t.kind));
        d->Add<std::int32_t>(t.layer);
        d->Add<std::int32_t>(t.src_layer);
        d->Add<std::int32_t>(t.round);
        d->Add<std::int32_t>(t.input_index);
        d->Add<std::int64_t>(t.bytes);
        d->Add<std::int32_t>(t.first_use);
        d->Add<std::int32_t>(t.fixed_end);
        // The tensor's LG range [begin, end), through the per-LG table.
        const int lg = p.tiles[t.first_use].lg;
        d->Add<std::int32_t>(p.lg_base[lg]);
        d->Add<std::int32_t>(p.lg_base[lg + 1]);
    }
    d->Add<std::int64_t>(static_cast<std::int64_t>(p.onchip.size()));
    for (const OnchipInterval &iv : p.onchip) {
        d->Add<std::int32_t>(iv.from);
        d->Add<std::int32_t>(iv.to);
        d->Add<std::int64_t>(iv.bytes);
        d->Add<std::int32_t>(iv.producer);
    }
}

void
DigestReport(const EvalReport &r, Digest *d)
{
    d->Add<std::int32_t>(r.valid);
    for (double v : {r.latency, r.core_energy_j, r.dram_energy_j,
                     r.compute_busy, r.dram_busy, r.avg_buffer})
        d->Add(v);
    d->Add<std::int64_t>(r.peak_buffer);
    d->Add<std::int64_t>(r.dram_bytes);
    for (const EventTiming &e : r.tile_times) {
        d->Add(e.start);
        d->Add(e.finish);
    }
    for (const EventTiming &e : r.tensor_times) {
        d->Add(e.start);
        d->Add(e.finish);
    }
}

struct GoldenWalk {
    const char *model;
    bool lg_resident_weights;
    const char *digest;  ///< HexU64 of the walk's digest
};

/** A fused start for the golden walks: one LG, FLGs of four
 *  consecutive layers of @p base's order, Tiling Number 1. */
LfaEncoding
FusedStart(const Graph &g, const LfaEncoding &base)
{
    LfaEncoding lfa;
    lfa.order = base.order;
    for (int p = 4; p < g.NumLayers(); p += 4) lfa.flc_cuts.push_back(p);
    lfa.tiling.assign(lfa.flc_cuts.size() + 1, 1);
    return lfa;
}

/**
 * Golden parse digests. Per (model, weight semantics), two fixed-seed
 * MakeInitialLfa + MutateLfaEncoding walks: one from the unfused
 * initial LFA, one from a fused single-LG start. Every candidate is
 * parsed through the incremental EvalContext (and its group memo) and
 * scored under the double-buffer DLSA. Unlike the
 * incremental-vs-full walks, which compare the parser with itself,
 * these pin the exact emission order and every field against recorded
 * values, so a parser rewrite that reorders tensors or loads fails
 * here. gpt2s-prefill's kFull K operand, loaded from DRAM across LGs,
 * exercises the ifmap residency extension; gpt2s-decode's 1-row fmaps
 * never tile, so its KV-cache loads cannot extend. The walks draw from
 * std::mt19937_64 through libstdc++'s distributions; a standard
 * library with different distribution algorithms would need the
 * digests re-recorded.
 */
TEST(ParserGolden, WalkDigestsArePinned)
{
    const GoldenWalk walks[] = {
        {"resnet50", false, "b6ba77ce3b5e21dc"},
        {"resnet50", true, "cc036c21a59cb15e"},
        {"ires", false, "6c086af7e55f6397"},
        {"ires", true, "995dd69cff6e3d85"},
        {"randwire", false, "69792e8cea816a11"},
        {"randwire", true, "201ab6350939f2ad"},
        {"gpt2s-decode", false, "b2db932c39a1be2b"},
        {"gpt2s-decode", true, "049449b8ad41a3b4"},
        {"gpt2s-prefill", false, "d6a1190ff1c21ad8"},
        {"gpt2s-prefill", true, "2aa69fef8c5b2585"},
    };
    constexpr int kSteps = 100;
    constexpr int kTilingCap = 16;
    for (const GoldenWalk &walk : walks) {
        SCOPED_TRACE(std::string(walk.model) +
                     (walk.lg_resident_weights ? " lg-resident" : ""));
        Graph g = BuildModelByName(walk.model, 1);
        HardwareConfig hw = EdgeAccelerator();
        CoreArrayEvaluator ce(g, hw);
        const Ops ops = g.TotalOps();
        EvalContext ctx(hw, hw.gbuf_bytes, ops);
        ParseOptions popts;
        popts.lg_resident_weights = walk.lg_resident_weights;

        Digest digest;
        Rng rng(2024);
        const LfaEncoding initial = MakeInitialLfa(g, hw, kTilingCap);
        int valid = 0, extended = 0, multi_flg_lgs = 0;
        for (const LfaEncoding &start : {initial, FusedStart(g, initial)}) {
            LfaEncoding current = start;
            LfaEncoding cand = start;
            for (int step = 0; step <= kSteps; ++step) {
                if (step > 0 &&
                    !MutateLfaEncoding(g, current, &cand, kTilingCap, rng))
                    continue;
                const ParsedSchedule &p = ctx.Parse(g, cand, ce, popts);
                DigestParse(p, &digest);
                if (!p.valid) continue;
                ++valid;
                if (p.num_flgs > p.num_lgs) ++multi_flg_lgs;
                for (const DramTensor &t : p.tensors) {
                    if (t.kind == DramTensorKind::kIfmap &&
                        t.fixed_end > t.first_use + 1)
                        ++extended;
                }
                const DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
                DigestReport(
                    ctx.Evaluate(p, dlsa),
                    &digest);
                if (rng.Flip()) current = cand;
            }
        }
        EXPECT_GT(valid, kSteps / 2);
        EXPECT_GT(multi_flg_lgs, kSteps / 4);
        if (std::string(walk.model) == "gpt2s-prefill") {
            EXPECT_GT(extended, 0);
        }
        EXPECT_EQ(HexU64(digest.value()), walk.digest);
    }
}

}  // namespace
}  // namespace soma

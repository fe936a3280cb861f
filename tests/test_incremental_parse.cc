/**
 * @file
 * Incremental LFA parse tests: the group-memoized ParseLfaInto must be
 * bit-identical to the from-scratch parse over randomized LFA mutation
 * chains — every tile, tensor and on-chip interval, and the downstream
 * EvalReport — and the dirty set must actually shrink to the mutated
 * groups.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "search/dlsa_heuristics.h"
#include "search/lfa_stage.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"
#include "workload/graph_builder.h"
#include "workload/models.h"

namespace soma {
namespace {

/** A residual-ish graph: branches give order mutations room to move.
 *  @p width sets the first block's channel count; every layer's
 *  spatial shape, and so every tile region, stays the same. */
Graph
MakeBranchy(int width = 32)
{
    GraphBuilder b("branchy", 1);
    LayerId stem =
        b.InputConv("stem", ExtShape{3, 32, 32}, width, 3, 1, 1);
    LayerId a1 = b.Conv("a1", stem, width, 3, 1, 1);
    LayerId a2 = b.Conv("a2", a1, width, 3, 1, 1);
    LayerId skip = b.Eltwise("skip", {stem, a2});
    LayerId b1 = b.Conv("b1", skip, 64, 3, 2, 1);
    LayerId b2 = b.Conv("b2", b1, 64, 3, 1, 1);
    LayerId c1 = b.Conv("c1", skip, 64, 1, 2, 0);
    LayerId join = b.Eltwise("join", {b2, c1});
    LayerId head = b.Conv("head", join, 96, 3, 1, 1);
    b.MarkOutput(head);
    return b.Take();
}

void
ExpectReportsIdentical(const EvalReport &a, const EvalReport &b)
{
    ASSERT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.why_invalid, b.why_invalid);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.core_energy_j, b.core_energy_j);
    EXPECT_EQ(a.dram_energy_j, b.dram_energy_j);
    EXPECT_EQ(a.peak_buffer, b.peak_buffer);
    EXPECT_EQ(a.avg_buffer, b.avg_buffer);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
    EXPECT_EQ(a.num_tiles, b.num_tiles);
    EXPECT_EQ(a.num_tensors, b.num_tensors);
}

/**
 * Random LFA mutation chain. Every candidate is parsed through the
 * incremental context (warm group memo) and from scratch; both parses
 * and the resulting double-buffer evaluations must match bit for bit.
 */
void
RunParseWalk(std::uint64_t seed, int steps)
{
    Graph g = MakeBranchy();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    const Ops ops = g.TotalOps();

    EvalContext ctx(hw, hw.gbuf_bytes, ops);

    LfaEncoding current = MakeInitialLfa(g, hw, 16);
    Rng rng(seed);
    LfaEncoding cand;
    int parsed_valid = 0;
    for (int i = 0; i < steps; ++i) {
        if (!MutateLfaEncoding(g, current, &cand, 16, rng)) continue;
        const ParsedSchedule &inc = ctx.Parse(g, cand, ce);
        // Reference: fresh scratch, empty memo.
        ParsedSchedule full = ParseLfa(g, cand, ce);
        ASSERT_TRUE(ParsedSchedulesIdentical(inc, full))
            << "step " << i << ": " << cand.ToString(g);
        if (inc.valid) {
            ++parsed_valid;
            DlsaEncoding dlsa = MakeDoubleBufferDlsa(inc);
            const EvalReport &inc_rep =
                ctx.Evaluate(inc, dlsa);
            EvalReport full_rep =
                EvaluateSchedule(g, hw, full, dlsa, hw.gbuf_bytes, ops);
            ExpectReportsIdentical(inc_rep, full_rep);
            if (rng.Flip()) current = cand;
        }
    }
    EXPECT_GT(parsed_valid, steps / 4);
}

TEST(IncrementalParse, MatchesFullParseOverMutationChain)
{
    RunParseWalk(11, 300);
}

TEST(IncrementalParse, CrossCheckModeAcceptsTheWalk)
{
    // ParseOptions::cross_check re-parses from scratch inside
    // ParseLfaInto and aborts on divergence: surviving a randomized
    // walk is the debug-mode proof the bench/CI path relies on.
    Graph g = MakeBranchy();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    EvalContext ctx(hw, hw.gbuf_bytes, g.TotalOps());
    ParseOptions popts;
    popts.cross_check = true;

    LfaEncoding current = MakeInitialLfa(g, hw, 16);
    Rng rng(37);
    LfaEncoding cand;
    for (int i = 0; i < 120; ++i) {
        if (!MutateLfaEncoding(g, current, &cand, 16, rng)) continue;
        const ParsedSchedule &p = ctx.Parse(g, cand, ce, popts);
        if (p.valid && rng.Flip()) current = cand;
    }
}

TEST(IncrementalParse, DirtySetShrinksToMutatedGroups)
{
    // A multi-group scheme: re-parsing after single-group edits must
    // reuse every untouched group's block.
    Graph g = MakeBranchy();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);

    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.flc_cuts = {2, 4, 6};
    lfa.dram_cuts = {4};
    lfa.tiling = {2, 2, 2, 2};

    ParseScratch scratch;
    ParsedSchedule out;
    ParseLfaInto(g, lfa, ce, ParseOptions{}, &scratch, &out);
    ASSERT_TRUE(out.valid);
    EXPECT_EQ(scratch.last_dirty_groups, 4);
    EXPECT_EQ(scratch.last_clean_groups, 0);

    // Same LFA again: everything clean.
    ParseLfaInto(g, lfa, ce, ParseOptions{}, &scratch, &out);
    EXPECT_EQ(scratch.last_dirty_groups, 0);
    EXPECT_EQ(scratch.last_clean_groups, 4);

    // Tiling scale of group 1: only that group re-derives.
    LfaEncoding scaled = lfa;
    scaled.tiling[1] = 4;
    ParseLfaInto(g, scaled, ce, ParseOptions{}, &scratch, &out);
    ASSERT_TRUE(out.valid);
    EXPECT_EQ(scratch.last_dirty_groups, 1);
    EXPECT_EQ(scratch.last_clean_groups, 3);

    // DRAM-cut toggle: LG structure is not part of any group's
    // key, so nothing re-derives.
    LfaEncoding cut = lfa;
    cut.dram_cuts = {2, 4};
    ParseLfaInto(g, cut, ce, ParseOptions{}, &scratch, &out);
    ASSERT_TRUE(out.valid);
    EXPECT_EQ(scratch.last_dirty_groups, 0);
    EXPECT_EQ(scratch.last_clean_groups, 4);

    // Deleting an FLC merges two groups into one new key: one
    // dirty group, the other two untouched.
    LfaEncoding merged = lfa;
    merged.flc_cuts = {2, 6};
    merged.dram_cuts.clear();
    merged.tiling = {2, 2, 2};
    ParseLfaInto(g, merged, ce, ParseOptions{}, &scratch, &out);
    ASSERT_TRUE(out.valid);
    EXPECT_EQ(scratch.last_dirty_groups, 1);
    EXPECT_EQ(scratch.last_clean_groups, 2);
}

/**
 * Move one layer to another dependency-legal position *within its own
 * FLG* — the sink-set-preserving subset of "Change Computing Order".
 * Returns false when no such move was found.
 */
bool
MutateOrderWithinGroup(const Graph &g, LfaEncoding *lfa, Rng &rng)
{
    const int n = static_cast<int>(lfa->order.size());
    std::vector<int> pos(n);
    for (int i = 0; i < n; ++i) pos[lfa->order[i]] = i;
    for (int attempt = 0; attempt < 16; ++attempt) {
        const int gidx = rng.UniformInt(0, lfa->NumFlgs() - 1);
        int begin, end;
        lfa->FlgRange(gidx, &begin, &end);
        if (end - begin < 2) continue;
        const int p = rng.UniformInt(begin, end - 1);
        const LayerId id = lfa->order[p];
        int lo = begin, hi = end - 1;
        for (const InputRef &in : g.layer(id).inputs()) {
            if (in.producer != kNoLayer)
                lo = std::max(lo, pos[in.producer] + 1);
        }
        for (const Edge &e : g.Consumers(id))
            hi = std::min(hi, pos[e.consumer] - 1);
        if (lo >= hi) continue;
        int q = rng.UniformInt(lo, hi - 1);
        if (q >= p) ++q;  // skip the current position
        if (q == p) continue;
        if (q < p) {
            std::rotate(lfa->order.begin() + q, lfa->order.begin() + p,
                        lfa->order.begin() + p + 1);
        } else {
            std::rotate(lfa->order.begin() + p,
                        lfa->order.begin() + p + 1,
                        lfa->order.begin() + q + 1);
        }
        return true;
    }
    return false;
}

TEST(IncrementalParse, IntraGroupOrderMoveIsAMemoHit)
{
    // An order move that stays inside one group leaves every group's
    // member set (hence sink set and tiling) unchanged, so nothing
    // re-derives — the moved group's block, derived in ascending
    // layer-id order, serves the new order as it is.
    Graph g = MakeBranchy();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);

    // Two groups; the second ({b1, b2, c1, join, head}) admits legal
    // interior moves (c1 only depends on skip, in the first group).
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.flc_cuts = {4};
    lfa.dram_cuts = {4};
    lfa.tiling = {2, 2};

    ParseScratch scratch;
    ParsedSchedule out;
    ParseLfaInto(g, lfa, ce, ParseOptions{}, &scratch, &out);
    ASSERT_TRUE(out.valid);
    ASSERT_EQ(scratch.last_dirty_groups, 2);

    LfaEncoding moved = lfa;
    Rng rng(5);
    ASSERT_TRUE(MutateOrderWithinGroup(g, &moved, rng));
    ASSERT_NE(moved.order, lfa.order);
    ParseLfaInto(g, moved, ce, ParseOptions{}, &scratch, &out);
    ASSERT_TRUE(out.valid);
    EXPECT_EQ(scratch.last_dirty_groups, 0);
    EXPECT_EQ(scratch.last_clean_groups, 2);

    // The hit must be invisible in the output: bit-identical to a
    // from-scratch parse of the moved LFA.
    ParsedSchedule full = ParseLfa(g, moved, ce);
    EXPECT_TRUE(ParsedSchedulesIdentical(out, full));
}

TEST(IncrementalParse, SinkSetSignatureSurvivesRandomizedOrderMoves)
{
    // Property test for the member-set key: over a randomized
    // chain of sink-set-preserving moves, every parse must be (a) a
    // full group-memo hit — zero dirty groups — and (b) bit-identical
    // to a from-scratch parse, enforced twice: by the explicit
    // comparison below and by cross_check (the SOMA_CROSS_CHECK=1
    // debug mode), which aborts the process on any divergence.
    Graph g = MakeBranchy();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    ParseOptions popts;
    popts.cross_check = true;

    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.flc_cuts = {4};
    lfa.dram_cuts = {};
    lfa.tiling = {2, 4};

    ParseScratch scratch;
    ParsedSchedule out;
    ParseLfaInto(g, lfa, ce, popts, &scratch, &out);
    ASSERT_TRUE(out.valid);

    Rng rng(91);
    int moves = 0;
    for (int step = 0; step < 150; ++step) {
        LfaEncoding cand = lfa;
        if (!MutateOrderWithinGroup(g, &cand, rng)) continue;
        ++moves;
        ParseLfaInto(g, cand, ce, popts, &scratch, &out);
        ASSERT_TRUE(out.valid) << "step " << step;
        EXPECT_EQ(scratch.last_dirty_groups, 0) << "step " << step;
        EXPECT_EQ(scratch.last_clean_groups, cand.NumFlgs());
        ParsedSchedule full = ParseLfa(g, cand, ce);
        ASSERT_TRUE(ParsedSchedulesIdentical(out, full))
            << "step " << step << ": " << cand.ToString(g);
        lfa = std::move(cand);
    }
    EXPECT_GT(moves, 30);
}

/** Parse @p lfa through the reused @p scratch and expect the result of
 *  a fresh scratch, bit for bit. */
void
ExpectReusedScratchParsesFresh(const Graph &g, const LfaEncoding &lfa,
                               const CoreArrayEvaluator &ce,
                               ParseScratch *scratch, ParsedSchedule *out,
                               const std::string &when)
{
    ParseLfaInto(g, lfa, ce, ParseOptions{}, scratch, out);
    EXPECT_TRUE(ParsedSchedulesIdentical(*out, ParseLfa(g, lfa, ce)))
        << when << ": " << lfa.ToString(g);
}

TEST(IncrementalParse, OneScratchAcrossGraphsEvaluatorsAndTheCap)
{
    // Blocks hold ids into the scratch's tile table, keyed by layer id
    // and region. A table kept across a change of graph or evaluator
    // would serve the other one's costs under equal keys: two graphs
    // whose layers share ids and regions but not channel counts, and
    // one graph on edge and on cloud hardware.
    ParseScratch scratch;
    ParsedSchedule out;
    LfaEncoding lfa;
    const Graph narrow = MakeBranchy(32), wide = MakeBranchy(48);
    lfa.order = narrow.TopoOrder();
    lfa.flc_cuts = {2, 4, 6};
    lfa.dram_cuts = {4};
    lfa.tiling = {2, 2, 2, 2};
    const CoreArrayEvaluator narrow_edge(narrow, EdgeAccelerator());
    const CoreArrayEvaluator wide_edge(wide, EdgeAccelerator());
    const CoreArrayEvaluator narrow_cloud(narrow, CloudAccelerator());
    ExpectReusedScratchParsesFresh(narrow, lfa, narrow_edge, &scratch,
                                   &out, "first graph");
    ASSERT_TRUE(out.valid);
    const double narrow_busy = out.compute_busy;
    ExpectReusedScratchParsesFresh(wide, lfa, wide_edge, &scratch, &out,
                                   "second graph");
    EXPECT_NE(out.compute_busy, narrow_busy);
    ExpectReusedScratchParsesFresh(narrow, lfa, narrow_edge, &scratch,
                                   &out, "first graph again");
    ExpectReusedScratchParsesFresh(narrow, lfa, narrow_cloud, &scratch,
                                   &out, "cloud evaluator");
    EXPECT_NE(out.compute_busy, narrow_busy);
    ExpectReusedScratchParsesFresh(narrow, lfa, narrow_edge, &scratch,
                                   &out, "edge evaluator again");
    EXPECT_EQ(out.compute_busy, narrow_busy);

    // An accept-if-valid walk on resnet50 derives more blocks than
    // kGroupMemoCap, so the memo and its table are cleared mid-walk.
    const Graph r50 = BuildResNet50(1);
    const HardwareConfig hw = EdgeAccelerator();
    const CoreArrayEvaluator ce(r50, hw);
    LfaEncoding current = MakeInitialLfa(r50, hw, kTilingCap);
    ExpectReusedScratchParsesFresh(r50, current, ce, &scratch, &out,
                                   "resnet50 seed");
    Rng rng(2025);
    LfaEncoding cand;
    int clears = 0;
    bool check_next = false;
    for (int step = 0; step < 12000; ++step) {
        if (!MutateLfaEncoding(r50, current, &cand, kTilingCap, rng))
            continue;
        const std::size_t blocks = scratch.group_memo.size();
        ParseLfaInto(r50, cand, ce, ParseOptions{}, &scratch, &out);
        const bool cleared = scratch.group_memo.size() < blocks;
        clears += cleared;
        if (cleared || check_next || step % 500 == 0) {
            EXPECT_TRUE(ParsedSchedulesIdentical(out, ParseLfa(r50, cand, ce)))
                << "step " << step << ": " << cand.ToString(r50);
        }
        check_next = cleared;
        if (out.valid) current = cand;
    }
    EXPECT_GE(clears, 1);
    EXPECT_LE(scratch.tiles.size(), scratch.MemoCells());
}

}  // namespace
}  // namespace soma

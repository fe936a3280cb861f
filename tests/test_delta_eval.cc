/**
 * @file
 * Delta timeline evaluation tests: the suffix resume behind
 * EvalContext::EvaluateDelta must be bit-identical to a from-scratch
 * evaluation over randomized mutation chains that mix DLSA moves, LFA
 * operators, and intra-group order moves — and the fast path must
 * actually engage, not silently fall back. Also covers the context's
 * single parse slot (a Parse drops a base evaluated against it) and
 * the reused per-context scratch: results must not depend on what a
 * previous candidate left in it.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "search/dlsa_heuristics.h"
#include "search/dlsa_stage.h"
#include "search/lfa_stage.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

/** A residual-ish graph: branches give order mutations room to move
 *  (a pure chain admits no dependency-legal interior order moves). */
Graph
MakeBranchy()
{
    GraphBuilder b("branchy", 1);
    LayerId stem = b.InputConv("stem", ExtShape{3, 32, 32}, 32, 3, 1, 1);
    LayerId a1 = b.Conv("a1", stem, 32, 3, 1, 1);
    LayerId a2 = b.Conv("a2", a1, 32, 3, 1, 1);
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
    EXPECT_EQ(a.compute_busy, b.compute_busy);
    EXPECT_EQ(a.dram_busy, b.dram_busy);
    EXPECT_EQ(a.compute_util, b.compute_util);
    EXPECT_EQ(a.dram_util, b.dram_util);
    EXPECT_EQ(a.theory_max_util, b.theory_max_util);
    EXPECT_EQ(a.peak_buffer, b.peak_buffer);
    EXPECT_EQ(a.avg_buffer, b.avg_buffer);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
    EXPECT_EQ(a.num_tiles, b.num_tiles);
    EXPECT_EQ(a.num_tensors, b.num_tensors);
    ASSERT_EQ(a.tile_times.size(), b.tile_times.size());
    for (std::size_t i = 0; i < a.tile_times.size(); ++i) {
        EXPECT_EQ(a.tile_times[i].start, b.tile_times[i].start) << i;
        EXPECT_EQ(a.tile_times[i].finish, b.tile_times[i].finish) << i;
    }
    ASSERT_EQ(a.tensor_times.size(), b.tensor_times.size());
    for (std::size_t i = 0; i < a.tensor_times.size(); ++i) {
        EXPECT_EQ(a.tensor_times[i].start, b.tensor_times[i].start) << i;
        EXPECT_EQ(a.tensor_times[i].finish, b.tensor_times[i].finish)
            << i;
    }
}

/**
 * The start condition, restated from the parse, the DLSA and the
 * report alone, so it holds whatever the context indexes: a tile
 * starts at the latest of the previous tile's finish (0 for tile 0),
 * its loads' finishes and the finishes of the stores whose End it is;
 * tile finishes never decrease by position, tensor finishes never by
 * DLSA rank; the latency is the latest finish of all.
 */
void
ExpectStartCondition(const ParsedSchedule &p, const DlsaEncoding &dlsa,
                     const EvalReport &rep)
{
    if (!rep.valid) return;
    const int T = p.NumTiles();
    const int D = p.NumTensors();
    std::vector<double> waits(T, 0.0);  // latest transfer each tile needs
    for (int j = 0; j < D; ++j) {
        const DramTensor &t = p.tensors[j];
        const TilePos at = t.IsLoad() ? t.first_use : dlsa.free_point[j];
        if (at < T)
            waits[at] = std::max(waits[at], rep.tensor_times[j].finish);
    }
    double latency = 0.0;
    for (int t = 0; t < T; ++t) {
        const double prev = t == 0 ? 0.0 : rep.tile_times[t - 1].finish;
        EXPECT_EQ(rep.tile_times[t].start, std::max(prev, waits[t]))
            << "tile " << t;
        EXPECT_GE(rep.tile_times[t].finish, prev) << "tile " << t;
        latency = std::max(latency, rep.tile_times[t].finish);
    }
    for (int r = 0; r < D; ++r) {
        const double finish = rep.tensor_times[dlsa.order[r]].finish;
        if (r > 0) {
            EXPECT_GE(finish, rep.tensor_times[dlsa.order[r - 1]].finish)
                << "rank " << r;
        }
        latency = std::max(latency, finish);
    }
    EXPECT_EQ(rep.latency, latency);
}

/** Move one layer to another dependency-legal position *within its own
 *  FLG* — the sink-set-preserving subset of "Change Computing Order",
 *  the move the permutation-view group blocks exist for. */
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

/**
 * Randomized mixed mutation chain. Alternates LFA phases (general LFA
 * operators plus intra-group order moves, evaluated through Evaluate on
 * the context's incremental parse) with DLSA phases (order/free-point
 * deltas on the committed parse, evaluated through EvaluateDelta);
 * every candidate is independently re-parsed and re-simulated from
 * scratch and the two reports compared field by field, bit for bit,
 * and every valid report must satisfy the restated start condition.
 * Random acceptances advance the walk (and, in DLSA phases, the
 * committed base) exactly like the SA walk does.
 */
void
RunMixedWalk(std::uint64_t seed, int phases, bool cross_check)
{
    Graph g = MakeBranchy();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    const Ops ops = g.TotalOps();
    const Bytes budget = hw.gbuf_bytes;

    EvalContext ctx(hw, budget, ops);
    ctx.set_cross_check(cross_check);

    LfaEncoding cur = MakeInitialLfa(g, hw, 16);
    Rng rng(seed);
    LfaEncoding cand;
    DlsaEncoding dlsa_scratch;
    int lfa_checked = 0, dlsa_checked = 0;

    for (int phase = 0; phase < phases; ++phase) {
        // --- LFA phase: structural mutations of the current LFA.
        for (int i = 0; i < 12; ++i) {
            bool mutated = rng.Flip()
                               ? MutateLfaEncoding(g, cur, &cand, 16, rng)
                               : ((cand = cur),
                                  MutateOrderWithinGroup(g, &cand, rng));
            if (!mutated) continue;
            const ParsedSchedule &p = ctx.Parse(g, cand, ce);
            ParsedSchedule full = ParseLfa(g, cand, ce);
            ASSERT_TRUE(ParsedSchedulesIdentical(p, full))
                << "phase " << phase << " step " << i;
            if (!p.valid) continue;
            dlsa_scratch = MakeDoubleBufferDlsa(p);
            const EvalReport &inc =
                ctx.Evaluate(p, dlsa_scratch);
            EvalReport ref =
                EvaluateSchedule(g, hw, full, dlsa_scratch, budget, ops);
            ExpectReportsIdentical(inc, ref);
            ExpectStartCondition(p, dlsa_scratch, inc);
            ++lfa_checked;
            if (inc.valid && rng.Flip()) cur = cand;
        }

        // --- DLSA phase: order/free-point deltas on the fixed parse.
        const ParsedSchedule &p = ctx.Parse(g, cur, ce);
        ASSERT_TRUE(p.valid);
        ParsedSchedule full = ParseLfa(g, cur, ce);
        ASSERT_TRUE(ParsedSchedulesIdentical(p, full));
        DlsaEncoding cur_d = MakeDoubleBufferDlsa(p);
        ASSERT_TRUE(ctx.Evaluate(p, cur_d).valid);
        ctx.Commit();
        DlsaMutator mutate(p);
        DlsaEncoding cand_d;
        DlsaDelta delta;
        for (int i = 0; i < 25; ++i) {
            if (!mutate(cur_d, &cand_d, rng, &delta)) continue;
            const EvalReport &inc =
                ctx.EvaluateDelta(p, cand_d, delta);
            EvalReport ref =
                EvaluateSchedule(g, hw, full, cand_d, budget, ops);
            ExpectReportsIdentical(inc, ref);
            ExpectStartCondition(p, cand_d, inc);
            ++dlsa_checked;
            if (inc.valid && rng.Flip()) {
                ctx.Commit();
                std::swap(cur_d, cand_d);
            }
        }
    }
    EXPECT_GT(lfa_checked, phases * 4);
    EXPECT_GT(dlsa_checked, phases * 8);

    // The walk must exercise the suffix-resume fast path, not live off
    // the full-evaluation fallback.
    const EvalContext::DeltaStats &ds = ctx.delta_stats();
    EXPECT_GT(ds.delta_evals, 0u);
    EXPECT_LT(ds.full_fallbacks, ds.delta_evals);
    if (cross_check) {
        EXPECT_GT(ds.cross_check_passes, 0u);
    }
}

TEST(DeltaEval, MixedChainMatchesFullEvaluation)
{
    RunMixedWalk(/*seed=*/131, /*phases=*/8, /*cross_check=*/false);
}

TEST(DeltaEval, MixedChainSurvivesCrossCheckMode)
{
    // cross_check re-simulates every delta evaluation from scratch
    // inside EvalContext and aborts the process on any divergence —
    // surviving the randomized walk is the debug-mode proof the
    // bench/CI path relies on.
    RunMixedWalk(/*seed=*/257, /*phases=*/4, /*cross_check=*/true);
}

TEST(DeltaEval, ParseDropsTheBaseItOverwrites)
{
    // The context owns one parse slot. A base committed against it
    // describes a schedule the next Parse overwrites, so a delta on the
    // new parse must fall back to a full evaluation, never resume from
    // the stale base.
    Graph g = MakeBranchy();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    const Ops ops = g.TotalOps();
    const Bytes budget = hw.gbuf_bytes;

    EvalContext ctx(hw, budget, ops);
    const LfaEncoding first = MakeInitialLfa(g, hw, 16);
    {
        const ParsedSchedule &p = ctx.Parse(g, first, ce);
        ASSERT_TRUE(p.valid);
        ASSERT_TRUE(
            ctx.Evaluate(p, MakeDoubleBufferDlsa(p))
                .valid);
        ctx.Commit();
        ASSERT_TRUE(ctx.HasBase());
    }

    LfaEncoding second = first;  // fuse the last two LGs into one
    ASSERT_FALSE(second.dram_cuts.empty());
    second.dram_cuts.pop_back();
    const ParsedSchedule &p = ctx.Parse(g, second, ce);
    ASSERT_TRUE(p.valid);
    ParsedSchedule full = ParseLfa(g, second, ce);
    DlsaEncoding base = MakeDoubleBufferDlsa(full);
    DlsaMutator mutate(full);
    Rng rng(5);
    DlsaEncoding cand;
    DlsaDelta delta;
    ASSERT_TRUE(mutate(base, &cand, rng, &delta));

    const std::uint64_t fallbacks = ctx.delta_stats().full_fallbacks;
    const EvalReport &inc =
        ctx.EvaluateDelta(p, cand, delta);
    EXPECT_EQ(ctx.delta_stats().full_fallbacks, fallbacks + 1);
    ExpectReportsIdentical(
        inc, EvaluateSchedule(g, hw, full, cand, budget, ops));
}

TEST(DeltaEval, ReusedScratchKeepsCandidatesIndependent)
{
    // Consecutive candidates reuse one context's scratch storage.
    // Candidate B's result must be bit-identical whether or not
    // candidate A's evaluation ran through that scratch first.
    Graph g = MakeBranchy();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    const Ops ops = g.TotalOps();
    const Bytes budget = hw.gbuf_bytes;
    LfaEncoding lfa = MakeInitialLfa(g, hw, 16);
    ParsedSchedule parsed = ParseLfa(g, lfa, ce);
    ASSERT_TRUE(parsed.valid);
    DlsaEncoding base = MakeDoubleBufferDlsa(parsed);

    DlsaMutator mutate(parsed);
    Rng rng(71);
    DlsaEncoding cand_a, cand_b;
    DlsaDelta delta_a, delta_b;
    ASSERT_TRUE(mutate(base, &cand_a, rng, &delta_a));
    ASSERT_TRUE(mutate(base, &cand_b, rng, &delta_b));

    // Warm context: A then B through the same scratch.
    EvalContext warm(hw, budget, ops);
    ASSERT_TRUE(warm.Evaluate(parsed, base).valid);
    warm.Commit();
    warm.EvaluateDelta(parsed, cand_a, delta_a);
    EvalReport through_warm =
        warm.EvaluateDelta(parsed, cand_b, delta_b);

    // Fresh context: B with cold scratch.
    EvalContext fresh(hw, budget, ops);
    ASSERT_TRUE(fresh.Evaluate(parsed, base).valid);
    fresh.Commit();
    const EvalReport &through_fresh =
        fresh.EvaluateDelta(parsed, cand_b, delta_b);

    ExpectReportsIdentical(through_warm, through_fresh);
}

}  // namespace
}  // namespace soma

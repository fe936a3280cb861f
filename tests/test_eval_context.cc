/**
 * @file
 * EvalContext tests: incremental (suffix-resumed) re-evaluation must be
 * bit-identical to full evaluation across randomized DLSA mutations,
 * including the invalid paths (buffer overflow, schedule deadlock), the
 * canonical price of an LFA candidate must equal evaluating the DLSA it
 * stands for, and the reusable parse must match the allocating
 * ParseLfa.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "compiler/ir.h"
#include "compiler/vm.h"
#include "hw/banked_dram.h"
#include "hw/memory_model.h"
#include "search/dlsa_heuristics.h"
#include "search/dlsa_stage.h"
#include "search/lfa_stage.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"
#include "workload/graph_builder.h"
#include "workload/models.h"

namespace soma {
namespace {

Graph
MakeConvChain(int layers)
{
    GraphBuilder b("chain", 1);
    LayerId x = b.InputConv("c0", ExtShape{3, 32, 32}, 64, 3, 1, 1);
    for (int i = 1; i < layers; ++i)
        x = b.Conv("c" + std::to_string(i), x, 64, 3, 1, 1);
    b.MarkOutput(x);
    return b.Take();
}

/** Two LGs with tiling, so the parse has weight loads, cross-LG ifmap
 *  loads, ofmap stores, and on-chip intervals. */
LfaEncoding
MakeTwoLgLfa(const Graph &g)
{
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.flc_cuts = {3};
    lfa.dram_cuts = {3};
    lfa.tiling = {2, 2};
    return lfa;
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
    EXPECT_EQ(a.num_flgs, b.num_flgs);
    EXPECT_EQ(a.num_lgs, b.num_lgs);
    ASSERT_EQ(a.tile_times.size(), b.tile_times.size());
    for (std::size_t i = 0; i < a.tile_times.size(); ++i) {
        EXPECT_EQ(a.tile_times[i].start, b.tile_times[i].start) << i;
        EXPECT_EQ(a.tile_times[i].finish, b.tile_times[i].finish) << i;
    }
    ASSERT_EQ(a.tensor_times.size(), b.tensor_times.size());
    for (std::size_t i = 0; i < a.tensor_times.size(); ++i) {
        EXPECT_EQ(a.tensor_times[i].start, b.tensor_times[i].start) << i;
        EXPECT_EQ(a.tensor_times[i].finish, b.tensor_times[i].finish) << i;
    }
}

/** Random walk of mutations; every candidate is evaluated both
 *  incrementally and from scratch, and random acceptances advance the
 *  incremental base. */
void
RunIncrementalWalk(Bytes budget, std::uint64_t seed, int steps)
{
    Graph g = MakeConvChain(6);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    ParsedSchedule parsed = ParseLfa(g, MakeTwoLgLfa(g), ce);
    ASSERT_TRUE(parsed.valid);
    ASSERT_GT(parsed.NumTensors(), 4);
    const Ops ops = g.TotalOps();

    EvalContext ctx(hw, budget, ops);
    DlsaEncoding current = MakeDoubleBufferDlsa(parsed);
    ctx.Evaluate(parsed, current);
    ctx.Commit();

    DlsaMutator mutate(parsed);
    Rng rng(seed);
    DlsaEncoding cand;
    DlsaDelta delta;
    int evaluated = 0, incremental_hits = 0;
    for (int i = 0; i < steps; ++i) {
        if (!mutate(current, &cand, rng, &delta)) continue;
        if (ctx.HasBase()) ++incremental_hits;
        const EvalReport &inc =
            ctx.EvaluateDelta(parsed, cand, delta);
        EvalReport full = EvaluateSchedule(g, hw, parsed, cand, budget, ops);
        ExpectReportsIdentical(inc, full);
        ++evaluated;
        // SA only ever accepts valid candidates (invalid cost +inf);
        // mirror that so the committed base stays valid.
        if (full.valid && rng.Flip()) {
            ctx.Commit();
            current = cand;
        }
    }
    EXPECT_GT(evaluated, steps / 2);
    // The walk must actually exercise the incremental path, not the
    // full-evaluation fallback.
    EXPECT_GT(incremental_hits, evaluated / 2);
}

TEST(EvalContext, IncrementalMatchesFullUnderFullBudget)
{
    HardwareConfig hw = EdgeAccelerator();
    RunIncrementalWalk(hw.gbuf_bytes, 101, 400);
}

TEST(EvalContext, IncrementalMatchesFullUnderTightBudget)
{
    // A budget near the double-buffer peak makes many mutations overflow
    // the buffer, covering the early-invalid incremental path.
    Graph g = MakeConvChain(6);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    ParsedSchedule parsed = ParseLfa(g, MakeTwoLgLfa(g), ce);
    ASSERT_TRUE(parsed.valid);
    Bytes peak = PeakBufferUsage(parsed, MakeDoubleBufferDlsa(parsed));
    RunIncrementalWalk(peak + peak / 16, 202, 400);
}

TEST(EvalContext, CommitIsOptionalBetweenEvaluations)
{
    // Rejected candidates must not disturb the base: evaluating the
    // same candidate twice with other rejected evaluations in between
    // yields identical reports.
    Graph g = MakeConvChain(6);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    ParsedSchedule parsed = ParseLfa(g, MakeTwoLgLfa(g), ce);
    ASSERT_TRUE(parsed.valid);
    const Ops ops = g.TotalOps();

    EvalContext ctx(hw, hw.gbuf_bytes, ops);
    DlsaEncoding base = MakeDoubleBufferDlsa(parsed);
    ctx.Evaluate(parsed, base);
    ctx.Commit();

    DlsaMutator mutate(parsed);
    Rng rng(7);
    DlsaEncoding cand;
    DlsaDelta delta;
    ASSERT_TRUE(mutate(base, &cand, rng, &delta));
    EvalReport first =
        ctx.EvaluateDelta(parsed, cand, delta);

    DlsaEncoding other;
    DlsaDelta other_delta;
    for (int i = 0; i < 10; ++i) {
        if (mutate(base, &other, rng, &other_delta)) {
            ctx.EvaluateDelta(parsed, other, other_delta);  // rejected
        }
    }
    const EvalReport &again =
        ctx.EvaluateDelta(parsed, cand, delta);
    ExpectReportsIdentical(first, again);
}

/** Hand-built two-load schedule whose DRAM order deadlocks: the first
 *  tensor in DRAM order waits for tile 0, which waits for the second.
 *  Its tensors are priced for the edge preset. */
ParsedSchedule
MakeDeadlockParse()
{
    ParsedSchedule p;
    p.valid = true;
    p.num_flgs = 1;
    p.num_lgs = 1;
    p.tiles.resize(3);
    for (TileInfo &t : p.tiles) t.cost.seconds = 1e-3;
    DramTensor l0;
    l0.kind = DramTensorKind::kWeight;
    l0.layer = 0;
    l0.bytes = 128;
    l0.first_use = 0;
    l0.fixed_end = 3;
    DramTensor l1 = l0;
    l1.layer = 1;
    l1.first_use = 2;
    p.tensors = {l0, l1};
    p.tiles[0].load_begin = 0;  // tile 0 needs tensor 0
    p.tiles[0].load_end = 1;
    p.tiles[2].load_begin = 1;  // tile 2 needs tensor 1
    p.tiles[2].load_end = 2;
    PriceDramTensors(EdgeAccelerator(), &p);
    return p;
}

TEST(Evaluator, ReportsScheduleDeadlock)
{
    Graph g = MakeConvChain(2);  // evaluator only reads parsed + hw
    HardwareConfig hw = EdgeAccelerator();
    ParsedSchedule p = MakeDeadlockParse();

    DlsaEncoding dlsa;
    dlsa.order = {1, 0};      // tensor 1 first: waits for tiles 0..1
    dlsa.free_point = {0, 2};  // tensor 1 starts at tile 2
    ASSERT_TRUE(DlsaValid(p, dlsa));

    EvalReport rep =
        EvaluateSchedule(g, hw, p, dlsa, 1 << 20, /*total_ops=*/1000);
    EXPECT_FALSE(rep.valid);
    EXPECT_EQ(rep.why_invalid, "schedule deadlock (DLSA order)");
    EXPECT_EQ(rep.Cost(), std::numeric_limits<double>::infinity());
}

TEST(EvalContext, IncrementalDeadlockMatchesFull)
{
    Graph g = MakeConvChain(2);
    HardwareConfig hw = EdgeAccelerator();
    ParsedSchedule p = MakeDeadlockParse();
    const Ops ops = 1000;
    const Bytes budget = 1 << 20;

    DlsaEncoding base;
    base.order = {0, 1};
    base.free_point = {0, 2};

    EvalContext ctx(hw, budget, ops);
    ASSERT_TRUE(ctx.Evaluate(p, base).valid);
    ctx.Commit();

    // Swap the order: tensor 0 moves behind tensor 1 -> deadlock.
    DlsaEncoding cand = base;
    cand.order = {1, 0};
    DlsaDelta delta;
    delta.kind = DlsaDelta::Kind::kOrderMove;
    delta.tensor = 0;
    delta.from_rank = 0;
    delta.to_rank = 1;

    const EvalReport &inc =
        ctx.EvaluateDelta(p, cand, delta);
    EvalReport full = EvaluateSchedule(g, hw, p, cand, budget, ops);
    ExpectReportsIdentical(inc, full);
    EXPECT_FALSE(inc.valid);

    // The base must survive the rejected deadlock candidate.
    DlsaEncoding cand2 = base;
    cand2.free_point = {0, 1};
    DlsaDelta d2;
    d2.kind = DlsaDelta::Kind::kFreePoint;
    d2.tensor = 1;
    d2.old_point = 2;
    d2.new_point = 1;
    const EvalReport &inc2 =
        ctx.EvaluateDelta(p, cand2, d2);
    EvalReport full2 = EvaluateSchedule(g, hw, p, cand2, budget, ops);
    ExpectReportsIdentical(inc2, full2);
}

TEST(EvalContext, ExternalParseRewrittenInPlaceIsReEvaluated)
{
    // A caller-owned parse has no invalidation hook. Re-parsed in place
    // at the same address, its next full evaluation must read the DRAM
    // seconds and sums of the new content, and the delta path must
    // resume from the base that evaluation committed.
    Graph g = MakeConvChain(6);
    const Ops ops = g.TotalOps();
    LfaEncoding second = MakeTwoLgLfa(g);
    second.dram_cuts.clear();  // one LG: other tensors, other bytes
    second.tiling = {4, 2};
    const MemoryModel *models[] = {&AnalyticalMemoryModel(),
                                   &BankedMemoryModel()};
    for (const MemoryModel *model : models) {
        SCOPED_TRACE(model->name());
        HardwareConfig hw = EdgeAccelerator();
        hw.memory_model = model;
        CoreArrayEvaluator ce(g, hw);
        EvalContext ctx(hw, hw.gbuf_bytes, ops);
        ParseScratch scratch;
        ParsedSchedule p;

        ParseLfaInto(g, MakeTwoLgLfa(g), ce, {}, &scratch, &p);
        ASSERT_TRUE(p.valid);
        const DlsaEncoding first = MakeDoubleBufferDlsa(p);
        ExpectReportsIdentical(
            ctx.Evaluate(p, first),
            EvaluateSchedule(g, hw, ParsedSchedule(p), first, hw.gbuf_bytes,
                             ops));
        ctx.Commit();

        ParseLfaInto(g, second, ce, {}, &scratch, &p);
        ASSERT_TRUE(p.valid);
        const ParsedSchedule copy = p;
        const DlsaEncoding base = MakeDoubleBufferDlsa(p);
        const EvalReport full = ctx.Evaluate(p, base);
        ASSERT_TRUE(full.valid);
        ExpectReportsIdentical(
            full, EvaluateSchedule(g, hw, copy, base, hw.gbuf_bytes, ops));
        ctx.Commit();

        DlsaMutator mutate(p);
        Rng rng(13);
        DlsaEncoding cand;
        DlsaDelta delta;
        ASSERT_TRUE(mutate(base, &cand, rng, &delta));
        const std::uint64_t fast = ctx.delta_stats().delta_evals;
        ExpectReportsIdentical(
            ctx.EvaluateDelta(p, cand, delta),
            EvaluateSchedule(g, hw, copy, cand, hw.gbuf_bytes, ops));
        EXPECT_EQ(ctx.delta_stats().delta_evals, fast + 1);
    }
}

bool
BitwiseEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** How the candidates of one canonical-pricing walk were priced. */
struct CanonicalWalk {
    int early = 0;       ///< under the double buffer (Cocco's prefetch)
    int lazy = 0;        ///< under the lazy DLSA
    int infeasible = 0;  ///< no canonical DLSA fits
    int vm_checked = 0;  ///< latencies replayed on the VM
};

/**
 * Price a random LFA walk on @p g with PriceCanonical under SoMa's or
 * Cocco's semantics and require every cost to equal, bitwise, building
 * the canonical DLSA (which must pass DlsaValid) and evaluating it in
 * full; every fourth valid candidate's latency must also equal the
 * VM's makespan of that DLSA's instructions. The budgets come from one
 * candidate whose lazy peak is below its double-buffer peak: that peak,
 * the lazy peak and one byte less, so the double buffer fits, only the
 * lazy DLSA fits, and nothing fits, each at least once. One context
 * per budget prices the whole walk, so its scratch is reused; the
 * middle one runs in cross-check mode.
 */
void
PriceCanonicalWalk(const Graph &g, bool cocco, CanonicalWalk *walk)
{
    const HardwareConfig hw = EdgeAccelerator();
    const CoreArrayEvaluator ce(g, hw);
    const Ops ops = g.TotalOps();
    ParseOptions popts;
    popts.lg_resident_weights = cocco;
    const CanonicalDlsa kind = cocco ? CanonicalDlsa::kCoccoPrefetch
                                     : CanonicalDlsa::kDoubleBufferElseLazy;
    auto early_dlsa = [cocco](const ParsedSchedule &p) {
        return cocco ? MakeCoccoDlsa(p) : MakeDoubleBufferDlsa(p);
    };

    // The walk takes every move whose parse is valid and keeps every
    // candidate, invalid parses included.
    std::vector<LfaEncoding> cands;
    Bytes early_peak = 0, lazy_peak = 0;
    LfaEncoding cur = MakeInitialLfa(g, hw, kTilingCap), next;
    Rng rng(7);
    for (int step = 0; step < 60; ++step) {
        if (!MutateLfaEncoding(g, cur, &next, kTilingCap, rng)) continue;
        cands.push_back(next);
        const ParsedSchedule p = ParseLfa(g, next, ce, popts);
        if (!p.valid) continue;
        cur = next;
        const Bytes early = PeakBufferUsage(p, early_dlsa(p));
        const Bytes lazy = PeakBufferUsage(p, MakeLazyDlsa(p));
        if (lazy < early && early > early_peak) {
            early_peak = early;
            lazy_peak = lazy;
        }
    }
    ASSERT_GT(early_peak, 0);

    for (const Bytes budget : {early_peak, lazy_peak, lazy_peak - 1}) {
        SCOPED_TRACE(budget);
        EvalContext ctx(hw, budget, ops);
        ctx.set_cross_check(budget == lazy_peak);
        for (const LfaEncoding &lfa : cands) {
            const ParsedSchedule &p = ctx.Parse(g, lfa, ce, popts);
            const double cost = ctx.PriceCanonical(p, kind, 1.0, 1.0);
            if (!p.valid) {
                EXPECT_EQ(cost, std::numeric_limits<double>::infinity());
                continue;
            }
            DlsaEncoding dlsa = early_dlsa(p);
            std::string why;
            ASSERT_TRUE(DlsaValid(p, dlsa, &why)) << why;
            EvalReport ref = EvaluateSchedule(g, hw, p, dlsa, budget, ops);
            int *outcome = &walk->early;
            if (!ref.valid && !cocco) {
                dlsa = MakeLazyDlsa(p);
                ASSERT_TRUE(DlsaValid(p, dlsa, &why)) << why;
                ref = EvaluateSchedule(g, hw, p, dlsa, budget, ops);
                outcome = &walk->lazy;
            }
            if (!ref.valid) outcome = &walk->infeasible;
            ++*outcome;
            EXPECT_TRUE(BitwiseEqual(cost, ref.Cost(1.0, 1.0)))
                << cost << " vs " << ref.Cost(1.0, 1.0);
            EXPECT_TRUE(BitwiseEqual(ctx.PriceCanonical(p, kind, 2.0, 0.5),
                                     ref.Cost(2.0, 0.5)));
            if (!ref.valid || (walk->early + walk->lazy) % 4 != 0) continue;
            // Energy^0 x Delay^1 is the latency itself.
            const double latency = ctx.PriceCanonical(p, kind, 0.0, 1.0);
            EXPECT_EQ(latency, ref.latency);
            const VmResult vm = ExecuteIr(GenerateIr(g, p, dlsa), hw);
            ASSERT_TRUE(vm.ok) << vm.error;
            EXPECT_EQ(vm.makespan, latency);
            ++walk->vm_checked;
        }
    }
}

TEST(EvalContext, CanonicalPriceEqualsEvaluatingItsDlsa)
{
    for (const char *model : {"resnet50", "ires", "randwire",
                              "gpt2s-decode"}) {
        SCOPED_TRACE(model);
        const Graph g = BuildModelByName(model, 1);
        CanonicalWalk soma, cocco;
        PriceCanonicalWalk(g, /*cocco=*/false, &soma);
        EXPECT_GT(soma.early, 0);
        EXPECT_GT(soma.lazy, 0);
        EXPECT_GT(soma.infeasible, 0);
        EXPECT_GT(soma.vm_checked, 0);
        PriceCanonicalWalk(g, /*cocco=*/true, &cocco);
        EXPECT_GT(cocco.early, 0);
        EXPECT_EQ(cocco.lazy, 0);
        EXPECT_GT(cocco.infeasible, 0);
        EXPECT_GT(cocco.vm_checked, 0);
    }
}

TEST(EvalContext, CanonicalStatsCountLazyAndInfeasiblePrices)
{
    Graph g = MakeConvChain(6);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    ParsedSchedule p = ParseLfa(g, MakeTwoLgLfa(g), ce);
    ASSERT_TRUE(p.valid);
    const Bytes early = PeakBufferUsage(p, MakeDoubleBufferDlsa(p));
    const Bytes lazy = PeakBufferUsage(p, MakeLazyDlsa(p));
    ASSERT_LT(lazy, early);
    for (const Bytes budget : {early, lazy, lazy - 1}) {
        EvalContext ctx(hw, budget, g.TotalOps());
        ctx.PriceCanonical(p, CanonicalDlsa::kDoubleBufferElseLazy, 1.0,
                           1.0);
        const EvalContext::CanonicalStats &stats = ctx.canonical_stats();
        EXPECT_EQ(stats.priced_lazy, budget == lazy ? 1 : 0) << budget;
        EXPECT_EQ(stats.priced_infeasible, budget < lazy ? 1 : 0) << budget;
    }
}

TEST(EvalContext, ParseMatchesParseLfa)
{
    Graph g = MakeConvChain(6);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    LfaEncoding lfa = MakeTwoLgLfa(g);

    EvalContext ctx(hw, hw.gbuf_bytes, g.TotalOps());
    // Parse twice through the same scratch: the second result must be
    // unaffected by the first's leftovers.
    ctx.Parse(g, lfa, ce);
    const ParsedSchedule &a = ctx.Parse(g, lfa, ce);
    ParsedSchedule b = ParseLfa(g, lfa, ce);
    ASSERT_EQ(a.valid, b.valid);
    ASSERT_EQ(a.NumTiles(), b.NumTiles());
    ASSERT_EQ(a.NumTensors(), b.NumTensors());
    EXPECT_EQ(a.num_flgs, b.num_flgs);
    EXPECT_EQ(a.num_lgs, b.num_lgs);
    for (int j = 0; j < a.NumTensors(); ++j) {
        EXPECT_EQ(a.tensors[j].kind, b.tensors[j].kind) << j;
        EXPECT_EQ(a.tensors[j].bytes, b.tensors[j].bytes) << j;
        EXPECT_EQ(a.tensors[j].first_use, b.tensors[j].first_use) << j;
        EXPECT_EQ(a.tensors[j].fixed_end, b.tensors[j].fixed_end) << j;
    }
    for (int i = 0; i < a.NumTiles(); ++i) {
        EXPECT_EQ(a.tiles[i].layer, b.tiles[i].layer) << i;
        EXPECT_EQ(a.tiles[i].cost.seconds, b.tiles[i].cost.seconds) << i;
        EXPECT_EQ(a.tiles[i].load_begin, b.tiles[i].load_begin) << i;
        EXPECT_EQ(a.tiles[i].load_end, b.tiles[i].load_end) << i;
    }
    ASSERT_EQ(a.onchip.size(), b.onchip.size());
}

}  // namespace
}  // namespace soma

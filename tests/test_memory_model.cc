/**
 * @file
 * MemoryModel seam tests: the analytical backend must reproduce the
 * legacy inline DRAM math byte for byte over randomized schemes, the
 * banked backend must be deterministic (across thread counts and in
 * its validation replay), the delta-evaluation byte-identity walk must
 * hold with the seam active, and memory_model must be part of the
 * request's serialized identity (fingerprint).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "api/scheduler.h"
#include "hw/banked_dram.h"
#include "hw/memory_model.h"
#include "search/dlsa_heuristics.h"
#include "search/dlsa_stage.h"
#include "search/lfa_stage.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"
#include "sim/memory_validation.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

/** Same branchy shape as test_delta_eval: gives order mutations room
 *  to move, so randomized schemes actually differ. */
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

// ---------------------------------------------------------------------
// Backend #1: analytical == the legacy inline math, byte for byte.

TEST(MemoryModel, AnalyticalFillMatchesDramSecondsExactly)
{
    HardwareConfig hw = EdgeAccelerator();
    const Bytes bytes[] = {0, 1, 63, 64, 4096, 1 << 20, 123456789};
    const unsigned char is_load[] = {1, 0, 1, 1, 0, 1, 0};
    DramTransferList list;
    list.bytes = bytes;
    list.is_load = is_load;
    list.count = 7;
    std::vector<double> seconds;
    AnalyticalMemoryModel().FillTransferSeconds(hw, list, &seconds);
    ASSERT_EQ(seconds.size(), 7u);
    for (int j = 0; j < 7; ++j)
        EXPECT_EQ(seconds[j], hw.DramSeconds(bytes[j])) << j;
    Bytes total = 0;
    for (Bytes b : bytes) total += b;
    EXPECT_EQ(AnalyticalMemoryModel().ChannelBusySeconds(hw, total,
                                                         seconds),
              hw.DramSeconds(total));
}

TEST(MemoryModel, AnalyticalSeamIsByteIdenticalOverRandomSchemes)
{
    // The acceptance pin: evaluating through an explicit analytical
    // MemoryModel must produce bit-identical reports to the null seam
    // (the pre-refactor inline math) over randomized schemes.
    Graph g = MakeBranchy();
    HardwareConfig hw_null = EdgeAccelerator();
    HardwareConfig hw_seam = EdgeAccelerator();
    hw_seam.memory_model = &AnalyticalMemoryModel();
    CoreArrayEvaluator ce(g, hw_null);
    const Ops ops = g.TotalOps();
    const Bytes budget = hw_null.gbuf_bytes;

    Rng rng(977);
    LfaEncoding cur = MakeInitialLfa(g, hw_null, 16);
    LfaEncoding cand;
    int checked = 0;
    for (int i = 0; i < 24; ++i) {
        if (!MutateLfaEncoding(g, cur, &cand, 16, rng)) continue;
        ParsedSchedule parsed = ParseLfa(g, cand, ce);
        if (!parsed.valid) continue;
        DlsaEncoding dlsa = MakeDoubleBufferDlsa(parsed);
        EvalReport null_rep =
            EvaluateSchedule(g, hw_null, parsed, dlsa, budget, ops);
        EvalReport seam_rep =
            EvaluateSchedule(g, hw_seam, parsed, dlsa, budget, ops);
        ExpectReportsIdentical(null_rep, seam_rep);
        ++checked;
        if (rng.Flip()) cur = cand;
    }
    EXPECT_GT(checked, 8);
}

// ---------------------------------------------------------------------
// Backend #2: banked model properties.

TEST(MemoryModel, BankedClosedFormMatchesFreshBankReplay)
{
    // The in-search closed form and the validation replay describe one
    // timing rule: for a single row-aligned transfer from cold banks
    // (no cross-tensor history, no turnaround) they must agree exactly.
    const BankedDramModel &model = BankedMemoryModel();
    HardwareConfig hw = EdgeAccelerator();
    const Bytes sizes[] = {1,      64,      2048,       2049,
                           16384,  16448,   1 << 20,    (1 << 20) + 7};
    for (Bytes bytes : sizes) {
        const unsigned char load = 1;
        DramTransferList list;
        list.bytes = &bytes;
        list.is_load = &load;
        list.count = 1;
        std::vector<double> closed;
        model.FillTransferSeconds(hw, list, &closed);

        std::vector<BankedTransfer> stream(1);
        stream[0].address = 0;
        stream[0].bytes = bytes;
        stream[0].is_load = true;
        std::vector<double> replayed;
        BankedReplayStats stats;
        model.ReplayTensorStream(hw, stream, &replayed, &stats);
        EXPECT_EQ(closed[0], replayed[0]) << bytes;
        EXPECT_EQ(stats.turnarounds, 0u);
        EXPECT_EQ(stats.busy_seconds, replayed[0]);
    }
}

TEST(MemoryModel, BankedCostsExceedAnalyticalAndStayFinite)
{
    // Same bus bandwidth + activate/precharge overhead: the banked
    // per-transfer cost can never undercut the analytical one.
    HardwareConfig hw = EdgeAccelerator();
    const Bytes bytes[] = {1, 64, 2048, 65536, 1 << 22};
    const unsigned char is_load[] = {1, 1, 0, 1, 0};
    DramTransferList list;
    list.bytes = bytes;
    list.is_load = is_load;
    list.count = 5;
    std::vector<double> banked, analytical;
    BankedMemoryModel().FillTransferSeconds(hw, list, &banked);
    AnalyticalMemoryModel().FillTransferSeconds(hw, list, &analytical);
    for (int j = 0; j < 5; ++j) {
        EXPECT_GT(banked[j], analytical[j]) << j;
        EXPECT_TRUE(std::isfinite(banked[j])) << j;
    }
}

TEST(MemoryModel, BankedReplayCountsRowReuse)
{
    // Two back-to-back reads of one row-sized tensor at one address:
    // the second transfer's bursts all hit the first one's open rows.
    const BankedDramModel &model = BankedMemoryModel();
    HardwareConfig hw = EdgeAccelerator();
    const Bytes row = model.params().row_bytes;
    const std::uint64_t bursts_per_row =
        static_cast<std::uint64_t>(row / model.params().burst_bytes);
    std::vector<BankedTransfer> stream(2);
    stream[0] = BankedTransfer{0, row, true};
    stream[1] = BankedTransfer{0, row, true};
    std::vector<double> seconds;
    BankedReplayStats stats;
    model.ReplayTensorStream(hw, stream, &seconds, &stats);
    EXPECT_EQ(stats.transactions, 2 * bursts_per_row);
    EXPECT_EQ(stats.row_misses, 1u);
    EXPECT_EQ(stats.row_hits, 2 * bursts_per_row - 1);
    EXPECT_EQ(stats.row_conflicts, 0u);
    EXPECT_LT(seconds[1], seconds[0]);  // open-row reuse is cheaper

    // A load->store flip pays exactly one turnaround.
    stream[1].is_load = false;
    model.ReplayTensorStream(hw, stream, &seconds, &stats);
    EXPECT_EQ(stats.turnarounds, 1u);
}

TEST(MemoryModel, BankedSearchIsDeterministicAcrossThreadCounts)
{
    // `threads` is a wall-clock knob, never identity — that contract
    // must survive the banked backend steering the search.
    auto graph = std::make_shared<const Graph>(MakeBranchy());
    auto run = [&](int threads) {
        Scheduler scheduler;
        ScheduleRequest request;
        request.graph = graph;
        request.memory_model = "banked";
        request.profile = SearchProfile::kQuick;
        request.seed = 11;
        request.threads = threads;
        return scheduler.Schedule(request);
    };
    ScheduleResult one = run(1);
    ScheduleResult four = run(4);
    ASSERT_TRUE(one.ok) << one.error;
    ASSERT_TRUE(four.ok) << four.error;
    EXPECT_EQ(one.cost, four.cost);
    ExpectReportsIdentical(one.report, four.report);
    EXPECT_EQ(one.scheme, four.scheme);
}

TEST(MemoryModel, ValidationGapIsDeterministicAndFinite)
{
    Graph g = MakeBranchy();
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    LfaEncoding lfa = MakeInitialLfa(g, hw, 16);
    ParsedSchedule parsed = ParseLfa(g, lfa, ce);
    ASSERT_TRUE(parsed.valid);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(parsed);

    MemoryValidationResult a = ValidateMemoryTiming(g, hw, parsed, dlsa);
    MemoryValidationResult b = ValidateMemoryTiming(g, hw, parsed, dlsa);
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_TRUE(std::isfinite(a.gap_pct));
    EXPECT_GT(a.banked_latency, 0.0);
    EXPECT_GE(a.banked_latency, a.analytical_latency);
    // Bitwise repeatable: same schedule, same stream, same replay.
    EXPECT_EQ(a.gap_pct, b.gap_pct);
    EXPECT_EQ(a.analytical_latency, b.analytical_latency);
    EXPECT_EQ(a.banked_latency, b.banked_latency);
    EXPECT_EQ(a.replay.transactions, b.replay.transactions);
    EXPECT_EQ(a.replay.row_hits, b.replay.row_hits);
    EXPECT_GT(a.replay.transactions, 0u);
}

// ---------------------------------------------------------------------
// The delta path stays bitwise-safe with the seam active.

TEST(MemoryModel, DeltaEvalByteIdentityWalkWithBankedSeam)
{
    // The test_delta_eval DLSA-walk pattern under the banked backend:
    // every incremental evaluation must match a from-scratch one bit
    // for bit, and the suffix-resume fast path must engage.
    Graph g = MakeBranchy();
    HardwareConfig hw = EdgeAccelerator();
    hw.memory_model = &BankedMemoryModel();
    CoreArrayEvaluator ce(g, hw);
    const Ops ops = g.TotalOps();
    const Bytes budget = hw.gbuf_bytes;

    EvalContext ctx;
    LfaEncoding lfa = MakeInitialLfa(g, hw, 16);
    ParsedSchedule parsed = ParseLfa(g, lfa, ce);
    ASSERT_TRUE(parsed.valid);
    DlsaEncoding cur = MakeDoubleBufferDlsa(parsed);
    ASSERT_TRUE(ctx.Evaluate(g, hw, parsed, cur, budget, ops).valid);
    ctx.Commit();

    DlsaMutator mutate(parsed);
    Rng rng(389);
    DlsaEncoding cand;
    DlsaDelta delta;
    int checked = 0;
    for (int i = 0; i < 120; ++i) {
        if (!mutate(cur, &cand, rng, &delta)) continue;
        const EvalReport &inc =
            ctx.EvaluateDelta(g, hw, parsed, cand, delta, budget, ops);
        EvalReport ref =
            EvaluateSchedule(g, hw, parsed, cand, budget, ops);
        ExpectReportsIdentical(inc, ref);
        ++checked;
        if (inc.valid && rng.Flip()) {
            ctx.Commit();
            std::swap(cur, cand);
        }
    }
    EXPECT_GT(checked, 60);
    const EvalContext::DeltaStats &ds = ctx.delta_stats();
    EXPECT_GT(ds.delta_evals, 0u);
}

// ---------------------------------------------------------------------
// API identity and registry behavior.

TEST(MemoryModel, FingerprintChangesWithMemoryModel)
{
    ScheduleRequest base;
    base.model = "resnet50";
    ScheduleRequest banked = base;
    banked.memory_model = "banked";
    ScheduleRequest analytical = base;
    analytical.memory_model = "analytical";

    EXPECT_NE(base.Fingerprint(), banked.Fingerprint());
    EXPECT_NE(base.Fingerprint(), analytical.Fingerprint());
    EXPECT_NE(analytical.Fingerprint(), banked.Fingerprint());

    // The empty default is omitted from JSON: pre-seam request texts
    // keep their fingerprints (and cached results stay valid).
    EXPECT_EQ(base.ToJson().Find("memory_model"), nullptr);
    ASSERT_NE(banked.ToJson().Find("memory_model"), nullptr);

    // Round trip preserves the field.
    ScheduleRequest round;
    std::string err;
    ASSERT_TRUE(ScheduleRequest::FromJson(banked.ToJson(), &round, &err))
        << err;
    EXPECT_EQ(round.memory_model, "banked");
    EXPECT_EQ(round.Fingerprint(), banked.Fingerprint());
}

TEST(MemoryModel, RegistryRejectsUnknownWithCandidates)
{
    MemoryModelRegistry reg = MemoryModelRegistry::WithBuiltins();
    EXPECT_TRUE(reg.Has("analytical"));
    EXPECT_TRUE(reg.Has("banked"));
    std::string err;
    EXPECT_EQ(reg.Find("hbm", &err), nullptr);
    EXPECT_NE(err.find("unknown memory model \"hbm\""), std::string::npos)
        << err;
    EXPECT_NE(err.find("analytical, banked"), std::string::npos) << err;
}

TEST(MemoryModel, SchedulerRejectsUnknownModelInRequest)
{
    Scheduler scheduler;
    ScheduleRequest request;
    request.graph = std::make_shared<const Graph>(MakeBranchy());
    request.memory_model = "hbm3";
    ScheduleResult result = scheduler.Schedule(request);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("unknown memory model"),
              std::string::npos)
        << result.error;
}

}  // namespace
}  // namespace soma

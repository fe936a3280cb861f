/**
 * @file
 * End-to-end integration tests, driven through the unified scheduler
 * API (soma::Scheduler): full SoMa runs on real workloads, the
 * model->search->IR->instructions pipeline, and cross-framework
 * relationships (SoMa vs Cocco, edge vs cloud). The quick profile
 * resolves to the same SomaOptionsFor(SearchProfile::kQuick, seed)
 * that direct RunSoma callers use.
 */
#include <gtest/gtest.h>

#include "api/scheduler.h"
#include "compiler/instruction_gen.h"
#include "compiler/ir.h"
#include "workload/models.h"

namespace soma {
namespace {

/** One quick-profile request for a zoo model on a named platform. */
ScheduleRequest
QuickRequest(const std::string &model, std::uint64_t seed,
             const std::string &hardware = "edge", int batch = 1)
{
    ScheduleRequest request;
    request.model = model;
    request.batch = batch;
    request.hardware = hardware;
    request.profile = SearchProfile::kQuick;
    request.seed = seed;
    return request;
}

TEST(EndToEnd, ResNet50EdgeValidAndFused)
{
    Scheduler scheduler;
    ScheduleResult res = scheduler.Schedule(QuickRequest("resnet50", 2));
    ASSERT_TRUE(res.ok) << res.error;
    HardwareConfig hw;
    std::string err;
    ASSERT_TRUE(scheduler.hardware().Make("edge", &hw, &err));
    EXPECT_LE(res.report.peak_buffer, hw.gbuf_bytes);
    EXPECT_LT(res.report.num_lgs, 20);
    EXPECT_GT(res.report.compute_util, 0.05);
    EXPECT_LE(res.report.compute_util, res.report.theory_max_util + 1e-9);
    // Stage 2 only improves on stage 1.
    ASSERT_TRUE(res.stage1_report.valid);
    EXPECT_LE(res.report.latency, res.stage1_report.latency + 1e-12);
}

TEST(EndToEnd, SomaBeatsCoccoOnResNet50)
{
    Scheduler scheduler;
    ScheduleRequest request = QuickRequest("resnet50", 2);
    ScheduleRequest cocco_request = request;
    cocco_request.scheduler = "cocco";
    ScheduleResult cocco = scheduler.Schedule(cocco_request);
    ScheduleResult ours = scheduler.Schedule(request);
    ASSERT_TRUE(cocco.ok) << cocco.error;
    ASSERT_TRUE(ours.ok) << ours.error;
    EXPECT_LT(ours.report.latency, cocco.report.latency);
    EXPECT_LE(ours.report.EnergyJ(), cocco.report.EnergyJ() * 1.02);
    // Cocco fuses less: the paper's LG-count gap.
    EXPECT_LT(ours.report.num_lgs, cocco.report.num_lgs);
    EXPECT_LT(ours.report.num_tiles, cocco.report.num_tiles);
}

TEST(EndToEnd, Gpt2DecodeIsBandwidthBound)
{
    Scheduler scheduler;
    // Inline-graph request: the zoo name would default to other
    // token counts, so build the workload directly.
    ScheduleRequest request;
    request.graph = std::make_shared<const Graph>(
        BuildGpt2Decode(Gpt2Small(), 1, 512));
    request.profile = SearchProfile::kQuick;
    request.seed = 3;
    ScheduleResult res = scheduler.Schedule(request);
    ASSERT_TRUE(res.ok) << res.error;
    // Decode compute density is tiny: utilization under 1%, DRAM nearly
    // saturated, and almost no headroom versus the theoretical bound.
    EXPECT_LT(res.report.compute_util, 0.01);
    EXPECT_GT(res.report.dram_util, 0.9);
    EXPECT_GT(res.report.compute_util,
              0.5 * res.report.theory_max_util);
}

TEST(EndToEnd, CloudFasterThanEdgeOnPrefill)
{
    Scheduler scheduler;
    ScheduleRequest request;
    request.graph = std::make_shared<const Graph>(
        BuildGpt2Prefill(Gpt2Small(), 1, 128));
    request.profile = SearchProfile::kQuick;
    request.seed = 4;
    ScheduleRequest cloud_request = request;
    cloud_request.hardware = "cloud";
    ScheduleResult edge = scheduler.Schedule(request);
    ScheduleResult cloud = scheduler.Schedule(cloud_request);
    ASSERT_TRUE(edge.ok) << edge.error;
    ASSERT_TRUE(cloud.ok) << cloud.error;
    EXPECT_LT(cloud.report.latency, edge.report.latency);
}

TEST(EndToEnd, SearchedSchemeLowersToInstructions)
{
    Scheduler scheduler;
    ScheduleRequest request;
    request.graph = std::make_shared<const Graph>(BuildRandWire(1, 7, 6));
    request.profile = SearchProfile::kQuick;
    request.seed = 5;
    request.artifacts.ir = true;
    request.artifacts.instructions = true;
    ScheduleResult res = scheduler.Schedule(request);
    ASSERT_TRUE(res.ok) << res.error;

    EXPECT_EQ(res.num_computes, res.report.num_tiles);
    EXPECT_EQ(res.num_loads + res.num_stores, res.report.num_tensors);
    EXPECT_FALSE(res.asm_text.empty());

    // The IR artifact survives a text round trip and regenerates the
    // same instruction stream the pipeline reported.
    IrModule back;
    std::string err;
    ASSERT_TRUE(IrModule::FromText(res.ir_text, &back, &err)) << err;
    Program prog = GenerateInstructions(back);
    EXPECT_TRUE(prog.DepsAcyclic());
    EXPECT_EQ(prog.ToText(), res.asm_text);
}

TEST(EndToEnd, ExecutionGraphRenders)
{
    Scheduler scheduler;
    ScheduleRequest request = QuickRequest("resnet50", 6);
    request.artifacts.execution_graph = true;
    request.artifacts.execution_graph_rows = 10;
    ScheduleResult res = scheduler.Schedule(request);
    ASSERT_TRUE(res.ok) << res.error;
    const std::string &text = res.execution_graph;
    EXPECT_NE(text.find("DRAM row"), std::string::npos);
    EXPECT_NE(text.find("COMPUTE row"), std::string::npos);
    EXPECT_NE(text.find("BUFFER peak"), std::string::npos);
    EXPECT_NE(text.find("resnet50"), std::string::npos);
    // The soma scheduler also renders its stage-1 (double-buffer) view.
    EXPECT_FALSE(res.stage1_execution_graph.empty());
}

TEST(EndToEnd, BiggerBufferNeverHurts)
{
    // 4 MB is the smallest buffer that admits any ResNet-50 scheme (the
    // classifier FC alone holds ~2 MB of weights).
    Scheduler scheduler;
    ScheduleRequest small = QuickRequest("resnet50", 7);
    small.gbuf_bytes = 4LL << 20;
    small.dram_gbps = 16.0;
    ScheduleRequest big = small;
    big.gbuf_bytes = 16LL << 20;
    ScheduleResult rs = scheduler.Schedule(small);
    ScheduleResult rb = scheduler.Schedule(big);
    ASSERT_TRUE(rs.ok) << rs.error;
    ASSERT_TRUE(rb.ok) << rb.error;
    // SA noise tolerance: a 4x buffer should never lose noticeably.
    EXPECT_LE(rb.report.latency, rs.report.latency * 1.05);
}

TEST(EndToEnd, MoreBandwidthHelpsWeightBoundNet)
{
    // ResNet-50 is weight-dominated at batch 1.
    Scheduler scheduler;
    ScheduleRequest slow = QuickRequest("resnet50", 8);
    slow.gbuf_bytes = 8LL << 20;
    slow.dram_gbps = 8.0;
    ScheduleRequest fast = slow;
    fast.dram_gbps = 64.0;
    ScheduleResult r_slow = scheduler.Schedule(slow);
    ScheduleResult r_fast = scheduler.Schedule(fast);
    ASSERT_TRUE(r_slow.ok) << r_slow.error;
    ASSERT_TRUE(r_fast.ok) << r_fast.error;
    EXPECT_LT(r_fast.report.latency, r_slow.report.latency * 0.7);
}

}  // namespace
}  // namespace soma

/**
 * @file
 * Instruction-VM tests: the generated instruction stream, executed on
 * the abstract two-unit machine, must reproduce the analytical
 * evaluator's timeline exactly — the compiler back-end and the model
 * agree (the cross-validation role of the paper's FPGA platform).
 */
#include <gtest/gtest.h>

#include "baselines/cocco.h"
#include "compiler/vm.h"
#include "corearray/core_array.h"
#include "hw/banked_dram.h"
#include "search/dlsa_heuristics.h"
#include "search/dlsa_stage.h"
#include "search/soma.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"
#include "workload/graph_builder.h"
#include "workload/models.h"

namespace soma {
namespace {

/** Full pipeline: parse -> evaluate -> IR -> instructions -> VM. */
struct BothResults {
    EvalReport report;
    VmResult vm;
};

BothResults
RunBothPipelines(const Graph &g, const HardwareConfig &hw,
                 const LfaEncoding &lfa,
                 const DlsaEncoding *dlsa_in = nullptr)
{
    CoreArrayEvaluator eval(g, hw);
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    EXPECT_TRUE(p.valid) << p.why_invalid;
    DlsaEncoding dlsa = dlsa_in ? *dlsa_in : MakeDoubleBufferDlsa(p);
    BothResults run;
    run.report = EvaluateSchedule(g, hw, p, dlsa, hw.gbuf_bytes,
                                  g.TotalOps());
    IrModule ir = GenerateIr(g, p, dlsa);
    run.vm = ExecuteIr(ir, hw);
    return run;
}

Graph
MakeChain(int layers)
{
    GraphBuilder b("chain", 1);
    LayerId prev = b.InputConv("l0", ExtShape{8, 32, 32}, 16, 3, 1, 1);
    for (int i = 1; i < layers; ++i)
        prev = b.Conv("l" + std::to_string(i), prev, 16, 3, 1, 1);
    b.MarkOutput(prev);
    return b.Take();
}

TEST(Vm, MatchesEvaluatorOnFusedChain)
{
    Graph g = MakeChain(4);
    HardwareConfig hw = EdgeAccelerator();
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.tiling = {2};
    BothResults run = RunBothPipelines(g, hw, lfa);
    ASSERT_TRUE(run.report.valid);
    ASSERT_TRUE(run.vm.ok) << run.vm.error;
    EXPECT_EQ(run.vm.makespan, run.report.latency);
    EXPECT_NEAR(run.vm.core_busy, run.report.compute_busy, 1e-15);
    EXPECT_NEAR(run.vm.dram_busy, run.report.dram_busy, 1e-15);
}

TEST(Vm, MatchesEvaluatorUnderBankedBackend)
{
    // The parse prices its tensors and the VM its load/store
    // instructions through the same per-transfer seam, so the two
    // timelines agree under the banked backend too.
    Graph g = MakeChain(4);
    HardwareConfig hw = EdgeAccelerator();
    hw.memory_model = &BankedMemoryModel();
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.tiling = {2};
    BothResults run = RunBothPipelines(g, hw, lfa);
    ASSERT_TRUE(run.report.valid);
    ASSERT_TRUE(run.vm.ok) << run.vm.error;
    EXPECT_EQ(run.vm.makespan, run.report.latency);
    EXPECT_NEAR(run.vm.dram_busy, run.report.dram_busy, 1e-15);
    BothResults flat = RunBothPipelines(g, EdgeAccelerator(), lfa);
    EXPECT_GT(run.report.dram_busy, flat.report.dram_busy);
}

TEST(Vm, MatchesEvaluatorOnUnfusedChain)
{
    Graph g = MakeChain(5);
    HardwareConfig hw = EdgeAccelerator();
    LfaEncoding lfa = MakeUnfusedLfa(g, {1, 1, 1, 1, 1});
    BothResults run = RunBothPipelines(g, hw, lfa);
    ASSERT_TRUE(run.report.valid);
    ASSERT_TRUE(run.vm.ok) << run.vm.error;
    EXPECT_EQ(run.vm.makespan, run.report.latency);
}

TEST(Vm, MatchesEvaluatorOnSearchedResNetScheme)
{
    Graph g = BuildResNet50(1);
    HardwareConfig hw = EdgeAccelerator();
    SearchResult res =
        RunSoma(g, hw, SomaOptionsFor(SearchProfile::kQuick, 5));
    ASSERT_TRUE(res.report.valid);
    IrModule ir = GenerateIr(g, res.parsed, res.dlsa);
    VmResult vm = ExecuteIr(ir, hw);
    ASSERT_TRUE(vm.ok) << vm.error;
    EXPECT_EQ(vm.makespan, res.report.latency);
}

TEST(Vm, MatchesEvaluatorOnCoccoScheme)
{
    Graph g = BuildRandWire(1, 7, 6);
    HardwareConfig hw = EdgeAccelerator();
    SearchResult res =
        RunCocco(g, hw, CoccoOptionsFor(SearchProfile::kQuick, 5));
    ASSERT_TRUE(res.report.valid);
    IrModule ir = GenerateIr(g, res.parsed, res.dlsa);
    VmResult vm = ExecuteIr(ir, hw);
    ASSERT_TRUE(vm.ok) << vm.error;
    EXPECT_EQ(vm.makespan, res.report.latency);
}

/**
 * The VM as an oracle over DLSA walks: from a searched scheme, walk
 * DLSA mutations through EvaluateDelta (committing about half the
 * valid moves, as the SA walk does) and require every valid
 * candidate's instruction replay to finish exactly when the evaluator
 * says. The VM shares the tile costs and the transfer model with the
 * evaluator, but not its recurrence: it replays the generated
 * instructions by their dependency edges, so a timeline indexing bug
 * that moves the makespan (a wrong gate rank, a stale resume point)
 * shows up as a mismatch.
 */
TEST(Vm, MakespanEqualsLatencyAlongDlsaWalks)
{
    for (const char *model : {"resnet50", "ires", "gpt2s-decode"}) {
        SCOPED_TRACE(model);
        Graph g = BuildModelByName(model, 1);
        HardwareConfig hw = EdgeAccelerator();
        SearchResult res =
            RunSoma(g, hw, SomaOptionsFor(SearchProfile::kQuick, 3));
        ASSERT_TRUE(res.report.valid);
        const ParsedSchedule &parsed = res.parsed;
        EvalContext ctx(hw, hw.gbuf_bytes, g.TotalOps());
        DlsaEncoding cur = res.dlsa;
        ASSERT_TRUE(ctx.Evaluate(parsed, cur).valid);
        ctx.Commit();

        DlsaMutator mutate(parsed);
        Rng rng(3);
        DlsaEncoding cand;
        DlsaDelta delta;
        int checked = 0;
        for (int step = 0; step < 400; ++step) {
            if (!mutate(cur, &cand, rng, &delta)) continue;
            const EvalReport &report = ctx.EvaluateDelta(parsed, cand, delta);
            if (!report.valid) continue;
            VmResult vm = ExecuteIr(GenerateIr(g, parsed, cand), hw);
            ASSERT_TRUE(vm.ok) << vm.error;
            EXPECT_EQ(vm.makespan, report.latency) << "step " << step;
            ++checked;
            if (rng.Flip()) {
                ctx.Commit();
                std::swap(cur, cand);
            }
        }
        EXPECT_GE(checked, 50);
    }
}

TEST(Vm, SurvivesIrTextRoundTripApproximately)
{
    Graph g = MakeChain(3);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.tiling = {1};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
    IrModule ir = GenerateIr(g, p, dlsa);

    IrModule back;
    std::string err;
    ASSERT_TRUE(IrModule::FromText(ir.ToText(), &back, &err)) << err;
    VmResult a = ExecuteIr(ir, hw);
    VmResult b = ExecuteIr(back, hw);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_NEAR(a.makespan, b.makespan, a.makespan * 1e-9);
}

TEST(Vm, ReportsMissingDurations)
{
    Graph g = MakeChain(2);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.tiling = {1};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
    Program prog = GenerateInstructions(GenerateIr(g, p, dlsa));
    VmResult vm = ExecuteProgram(prog, {0.001}, hw);  // too few
    EXPECT_FALSE(vm.ok);
    EXPECT_NE(vm.error.find("missing"), std::string::npos);
}

TEST(Vm, EventTimesRespectDependencies)
{
    Graph g = MakeChain(4);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.tiling = {2};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
    Program prog = GenerateInstructions(GenerateIr(g, p, dlsa));
    std::vector<double> seconds;
    for (const TileInfo &t : p.tiles) seconds.push_back(t.cost.seconds);
    VmResult vm = ExecuteProgram(prog, seconds, hw);
    ASSERT_TRUE(vm.ok);
    for (const Instruction &instr : prog.instructions) {
        for (int d : instr.deps) {
            EXPECT_GE(vm.events[instr.id].start + 1e-15,
                      vm.events[d].finish)
                << instr.ToText();
        }
    }
}

}  // namespace
}  // namespace soma

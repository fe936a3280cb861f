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
 * True if some tile of @p rep starts exactly when a store whose End it
 * is finishes, strictly after the previous tile's finish and after the
 * tile's loads: the store, not the compute chain or a load, binds it.
 */
bool
StoreBindsATileStart(const ParsedSchedule &p, const DlsaEncoding &dlsa,
                     const EvalReport &rep)
{
    const int T = p.NumTiles();
    std::vector<double> loads(T, 0.0), stores(T, 0.0);
    for (int j = 0; j < p.NumTensors(); ++j) {
        const DramTensor &t = p.tensors[j];
        const TilePos at = t.IsLoad() ? t.first_use : dlsa.free_point[j];
        if (at >= T) continue;
        double &wait = t.IsLoad() ? loads[at] : stores[at];
        wait = std::max(wait, rep.tensor_times[j].finish);
    }
    for (int t = 0; t < T; ++t) {
        const double prev = t == 0 ? 0.0 : rep.tile_times[t - 1].finish;
        if (stores[t] > prev && stores[t] > loads[t] &&
            stores[t] == rep.tile_times[t].start)
            return true;
    }
    return false;
}

/** Counts of one DLSA walk replayed on the VM. */
struct VmWalk {
    int checked = 0;      ///< valid candidates replayed
    int store_bound = 0;  ///< of which a store binds a tile start
};

/**
 * The VM as an oracle over DLSA walks: from the searched scheme
 * @p res, walk 400 DLSA mutations through EvaluateDelta (committing
 * about half the valid moves, as the SA walk does) and require every
 * valid candidate's instruction replay to finish exactly when the
 * evaluator says. The VM shares the tile costs and the transfer model
 * with the evaluator, but not its recurrence: it replays the generated
 * instructions by their dependency edges, so a timeline indexing bug
 * that moves the makespan (a wrong gate rank, a stale resume point)
 * shows up as a mismatch.
 */
void
WalkDlsaOnVm(const Graph &g, const HardwareConfig &hw,
             const SearchResult &res, VmWalk *walk)
{
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
    for (int step = 0; step < 400; ++step) {
        if (!mutate(cur, &cand, rng, &delta)) continue;
        const EvalReport &report = ctx.EvaluateDelta(parsed, cand, delta);
        if (!report.valid) continue;
        VmResult vm = ExecuteIr(GenerateIr(g, parsed, cand), hw);
        ASSERT_TRUE(vm.ok) << vm.error;
        EXPECT_EQ(vm.makespan, report.latency) << "step " << step;
        ++walk->checked;
        if (StoreBindsATileStart(parsed, cand, report)) ++walk->store_bound;
        if (rng.Flip()) {
            ctx.Commit();
            std::swap(cur, cand);
        }
    }
}

TEST(Vm, MakespanEqualsLatencyAlongDlsaWalks)
{
    for (const char *model : {"resnet50", "ires", "gpt2s-decode"}) {
        SCOPED_TRACE(model);
        Graph g = BuildModelByName(model, 1);
        HardwareConfig hw = EdgeAccelerator();
        VmWalk walk;
        WalkDlsaOnVm(g, hw,
                     RunSoma(g, hw, SomaOptionsFor(SearchProfile::kQuick, 3)),
                     &walk);
        EXPECT_GE(walk.checked, 50);
    }
}

/**
 * The same oracle from Cocco schemes, on which store Ends bind tile
 * starts (on every valid candidate of both walks): a gate that dropped
 * or misranked the stores moves the makespan here, while the walks
 * above never see a store bind.
 */
TEST(Vm, MakespanEqualsLatencyAlongStoreBoundCoccoWalks)
{
    for (const char *model : {"randwire", "ires"}) {
        SCOPED_TRACE(model);
        Graph g = BuildModelByName(model, 1);
        HardwareConfig hw = EdgeAccelerator();
        VmWalk walk;
        WalkDlsaOnVm(g, hw,
                     RunCocco(g, hw, CoccoOptionsFor(SearchProfile::kQuick, 3)),
                     &walk);
        EXPECT_GE(walk.checked, 50);
        EXPECT_GT(walk.store_bound, 0);
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

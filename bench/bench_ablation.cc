/**
 * @file
 * Ablation benches for the design choices DESIGN.md calls out:
 *
 *  A1 stage-2 contribution      — Ours_1 vs Ours_2 (Sec. V-A's rationale
 *                                 for the two-stage split);
 *  A2 buffer allocator          — one outer iteration (whole GBUF to
 *                                 stage 1) vs the shrinking loop;
 *  A3 greedy fusion seeding     — the scaled-budget adaptation on/off;
 *  A4 DLSA strategy             — lazy vs double-buffer vs searched DLSA
 *                                 on the same LFA (Sec. III-B's
 *                                 motivation quantified).
 */
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "search/dlsa_heuristics.h"
#include "sim/evaluator.h"

namespace {

using namespace soma;
using namespace soma::bench;

Table g_table({"ablation", "workload", "variant", "latency(ms)",
               "energy(mJ)", "cost"});

void
AddRow(const std::string &ablation, const std::string &net,
       const std::string &variant, const EvalReport &r)
{
    if (!r.valid) {
        g_table.AddRow({ablation, net, variant, "-", "-", "-"});
        return;
    }
    g_table.AddRow({ablation, net, variant, FormatDouble(r.latency * 1e3),
                    FormatDouble(r.EnergyJ() * 1e3),
                    FormatDouble(r.Cost(), 6)});
}

void
StageContribution(benchmark::State &state, const char *net)
{
    for (auto _ : state) {
        Graph g = BuildModelByName(net, 1);
        HardwareConfig hw = EdgeAccelerator();
        SearchResult res =
            RunSoma(g, hw, BenchSomaOptions(ProfileFromEnv(), 1));
        AddRow("A1 two-stage", net, "stage1 only", res.stage1_report);
        AddRow("A1 two-stage", net, "stage1+stage2", res.report);
        if (res.report.valid && res.stage1_report.valid) {
            state.counters["stage2_gain"] =
                res.stage1_report.latency / res.report.latency;
        }
    }
}

void
BufferAllocator(benchmark::State &state, const char *net)
{
    for (auto _ : state) {
        Graph g = BuildModelByName(net, 1);
        HardwareConfig hw = EdgeAccelerator();
        SomaOptions one = BenchSomaOptions(ProfileFromEnv(), 1);
        one.alloc.max_iterations = 1;
        SomaOptions loop = BenchSomaOptions(ProfileFromEnv(), 1);
        loop.alloc.max_iterations = 4;
        SearchResult r_one = RunSoma(g, hw, one);
        SearchResult r_loop = RunSoma(g, hw, loop);
        AddRow("A2 buffer allocator", net, "single iteration",
               r_one.report);
        AddRow("A2 buffer allocator", net, "shrinking loop",
               r_loop.report);
        if (r_one.report.valid && r_loop.report.valid) {
            state.counters["alloc_gain"] =
                r_one.report.latency / r_loop.report.latency;
        }
    }
}

void
GreedySeed(benchmark::State &state, const char *net)
{
    for (auto _ : state) {
        Graph g = BuildModelByName(net, 1);
        HardwareConfig hw = EdgeAccelerator();
        SomaOptions with = BenchSomaOptions(ProfileFromEnv(), 1);
        SomaOptions without = with;
        without.lfa.greedy_seed = false;
        SearchResult r_with = RunSoma(g, hw, with);
        SearchResult r_without = RunSoma(g, hw, without);
        AddRow("A3 greedy seed", net, "seeded", r_with.report);
        AddRow("A3 greedy seed", net, "SA only", r_without.report);
        if (r_with.report.valid && r_without.report.valid) {
            state.counters["seed_gain"] =
                r_without.report.latency / r_with.report.latency;
        }
    }
}

void
DlsaStrategies(benchmark::State &state, const char *net)
{
    for (auto _ : state) {
        Graph g = BuildModelByName(net, 1);
        HardwareConfig hw = EdgeAccelerator();
        SearchResult res =
            RunSoma(g, hw, BenchSomaOptions(ProfileFromEnv(), 1));
        if (!res.report.valid) continue;
        Ops ops = g.TotalOps();
        EvalReport lazy = EvaluateSchedule(
            g, hw, res.parsed, MakeLazyDlsa(res.parsed), hw.gbuf_bytes,
            ops);
        EvalReport db = EvaluateSchedule(
            g, hw, res.parsed, MakeDoubleBufferDlsa(res.parsed),
            hw.gbuf_bytes, ops);
        AddRow("A4 DLSA strategy", net, "lazy (no prefetch)", lazy);
        AddRow("A4 DLSA strategy", net, "double buffer", db);
        AddRow("A4 DLSA strategy", net, "searched (stage 2)", res.report);
        if (lazy.valid) {
            state.counters["search_vs_lazy"] =
                lazy.latency / res.report.latency;
        }
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::InitBenchJson(&argc, argv);
    std::cout << "bench_ablation profile=" << ToString(ProfileFromEnv())
              << "\n";
    const char *nets[] = {"resnet50", "randwire"};
    for (const char *net : nets) {
        benchmark::RegisterBenchmark(
            (std::string("ablation/stage2/") + net).c_str(),
            [net](benchmark::State &s) { StageContribution(s, net); })
            ->Unit(benchmark::kSecond)->Iterations(1);
        benchmark::RegisterBenchmark(
            (std::string("ablation/alloc/") + net).c_str(),
            [net](benchmark::State &s) { BufferAllocator(s, net); })
            ->Unit(benchmark::kSecond)->Iterations(1);
        benchmark::RegisterBenchmark(
            (std::string("ablation/seed/") + net).c_str(),
            [net](benchmark::State &s) { GreedySeed(s, net); })
            ->Unit(benchmark::kSecond)->Iterations(1);
        benchmark::RegisterBenchmark(
            (std::string("ablation/dlsa/") + net).c_str(),
            [net](benchmark::State &s) { DlsaStrategies(s, net); })
            ->Unit(benchmark::kSecond)->Iterations(1);
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    std::cout << "\n=== Ablations ===\n";
    g_table.Print(std::cout);
    bench::JsonSink::Instance().Flush();
    return 0;
}

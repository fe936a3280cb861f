/**
 * @file
 * Fig. 8: the practical execution-graph case study. For ResNet-50 and
 * GPT-2-XL-prefill on the default edge accelerator, prints the
 * DRAM/COMPUTE/BUFFER execution graphs of (top) Cocco, (middle) SoMa
 * stage 1, (bottom) SoMa stage 2 with their cuts and Tiling Numbers, and
 * the stage-wise gains the paper quotes for this example (stage 1
 * 1.57x / -36.1% energy, stage 2 a further 1.25x; total 1.96x).
 */
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "sim/report.h"

namespace {

using namespace soma;
using namespace soma::bench;

struct CaseResult {
    std::string net;
    Graph graph;
    SearchResult cocco;
    SearchResult ours;
};

std::vector<CaseResult> g_cases;

void
RunCase(benchmark::State &state, const char *net)
{
    for (auto _ : state) {
        CaseResult c;
        c.net = net;
        c.graph = BuildModelByName(net, 1);
        HardwareConfig hw = EdgeAccelerator();
        SearchProfile profile = ProfileFromEnv();
        c.cocco = RunCocco(c.graph, hw, CoccoOptionsFor(profile, 1));
        c.ours = RunSoma(c.graph, hw, BenchSomaOptions(profile, 1));
        if (c.cocco.report.valid && c.ours.report.valid) {
            state.counters["stage1_speedup"] =
                c.cocco.report.latency / c.ours.stage1_report.latency;
            state.counters["stage2_speedup"] =
                c.ours.stage1_report.latency / c.ours.report.latency;
        }
        g_cases.push_back(std::move(c));
    }
}

void
PrintCase(const CaseResult &c)
{
    const int rows = 48;
    std::cout << "\n######## Fig. 8 case: " << c.net << " ########\n";

    std::cout << "\n---- Cocco (top) ----\n";
    std::cout << "scheme: " << c.cocco.lfa.ToString(c.graph) << "\n";
    PrintExecutionGraph(std::cout, c.graph, c.cocco.parsed, c.cocco.dlsa,
                        c.cocco.report, rows);

    std::cout << "\n---- SoMa stage 1 (middle): searched LFA + "
                 "double-buffer DLSA ----\n";
    std::cout << "scheme: " << c.ours.lfa.ToString(c.graph) << "\n";
    PrintExecutionGraph(std::cout, c.graph, c.ours.parsed,
                        c.ours.stage1_dlsa, c.ours.stage1_report, rows);

    std::cout << "\n---- SoMa stage 2 (bottom): prefetch / delayed-store "
                 "schedule ----\n";
    PrintExecutionGraph(std::cout, c.graph, c.ours.parsed, c.ours.dlsa,
                        c.ours.report, rows);

    if (c.cocco.report.valid && c.ours.report.valid) {
        double s1 = c.cocco.report.latency / c.ours.stage1_report.latency;
        double s2 = c.ours.stage1_report.latency / c.ours.report.latency;
        double e1 = 1.0 - c.ours.stage1_report.EnergyJ() /
                              c.cocco.report.EnergyJ();
        std::cout << "\nstage-1 speedup over Cocco: " << FormatDouble(s1, 2)
                  << "x";
        if (c.net == "resnet50") std::cout << "  [paper: 1.57x]";
        std::cout << "\nstage-1 energy reduction: "
                  << FormatDouble(e1 * 100, 1) << "%";
        if (c.net == "resnet50") std::cout << "  [paper: 36.1%]";
        std::cout << "\nstage-2 additional speedup: " << FormatDouble(s2, 2)
                  << "x";
        if (c.net == "resnet50") std::cout << "  [paper: 1.25x]";
        std::cout << "\ntotal: " << FormatDouble(s1 * s2, 2) << "x";
        if (c.net == "resnet50") std::cout << "  [paper: 1.96x]";
        std::cout << "\n";
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::InitBenchJson(&argc, argv);
    std::cout << "bench_fig8_execgraph profile="
              << ToString(ProfileFromEnv()) << "\n";
    benchmark::RegisterBenchmark("fig8/resnet50", RunCase, "resnet50")
        ->Unit(benchmark::kSecond)->Iterations(1);
    // The paper's right half shows one block of GPT-2-XL-prefill on the
    // edge box. GPT-2-XL's largest FFN weight (10.2 MB) exceeds the 8 MB
    // edge GBUF under our whole-tensor weight residency, so we
    // substitute GPT-2-Small (same block structure, fits on chip); see
    // EXPERIMENTS.md.
    benchmark::RegisterBenchmark("fig8/gpt2-prefill", RunCase,
                                 "gpt2s-prefill")
        ->Unit(benchmark::kSecond)->Iterations(1);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    for (const CaseResult &c : g_cases) PrintCase(c);
    bench::JsonSink::Instance().Flush();
    return 0;
}

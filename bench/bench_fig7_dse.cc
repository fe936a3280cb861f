/**
 * @file
 * Fig. 7: design-space exploration over DRAM bandwidth x buffer size for
 * the 16 TOPS edge accelerator. Prints the latency heat-map rows for
 * Cocco and SoMa per workload and batch size, and marks the
 * minimum-latency envelope (the paper's red curve: with SoMa, a larger
 * buffer substitutes for DRAM bandwidth — a lower-right triangle of
 * near-minimal configurations that Cocco does not exhibit).
 *
 * Insights to reproduce: (1) at batch 1, bandwidth dominates and buffer
 * barely helps; (2) at larger batches the buffer column gradient grows;
 * (3) big-buffer + big-bandwidth corners are wasteful.
 */
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <vector>

#include "bench_common.h"
#include "common/table.h"

namespace {

using namespace soma;
using namespace soma::bench;

const std::vector<double> kBandwidths = {8, 16, 32, 64};
const std::vector<Bytes> kBuffers = {2LL << 20, 4LL << 20, 8LL << 20,
                                     16LL << 20, 32LL << 20};

struct GridResult {
    std::string net;
    int batch;
    bool use_soma;
    // latency[bw index][buf index]
    std::vector<std::vector<double>> latency;
};

std::vector<GridResult> g_grids;

std::vector<const char *>
NetsFor(SearchProfile p)
{
    if (p == SearchProfile::kQuick) return {"resnet50"};
    if (p == SearchProfile::kDefault) return {"resnet50", "gpt2s-decode"};
    return {"resnet50", "resnet101", "ires", "randwire", "gpt2s-prefill",
            "gpt2s-decode"};
}

void
RunGrid(benchmark::State &state, const char *net, int batch, bool use_soma)
{
    for (auto _ : state) {
        Graph g = BuildModelByName(net, batch);
        GridResult grid;
        grid.net = net;
        grid.batch = batch;
        grid.use_soma = use_soma;
        SearchProfile profile = ProfileFromEnv();
        // The DSE sweep runs many searches; drop one budget tier.
        SearchProfile inner = profile == SearchProfile::kFull
                                  ? SearchProfile::kDefault
                                  : SearchProfile::kQuick;
        double best = 1e30;
        for (double bw : kBandwidths) {
            std::vector<double> row;
            for (Bytes buf : kBuffers) {
                HardwareConfig hw =
                    WithBufferAndBandwidth(EdgeAccelerator(), buf, bw);
                double latency;
                if (use_soma) {
                    latency = RunSoma(g, hw, BenchSomaOptions(inner, 1))
                                  .report.latency;
                } else {
                    latency = RunCocco(g, hw, CoccoOptionsFor(inner, 1))
                                  .report.latency;
                }
                row.push_back(latency);
                best = std::min(best, latency);
            }
            grid.latency.push_back(row);
        }
        g_grids.push_back(grid);
        state.counters["min_latency_ms"] = best * 1e3;
    }
}

void
PrintGrids()
{
    for (const GridResult &grid : g_grids) {
        std::cout << "\n=== Fig. 7: " << (grid.use_soma ? "SoMa" : "Cocco")
                  << " | " << grid.net << " | batch " << grid.batch
                  << " | latency ms (rows GB/s, cols buffer MB; * = within "
                     "2% of minimum) ===\n";
        double best = 1e30;
        for (const auto &row : grid.latency)
            for (double v : row) best = std::min(best, v);

        std::vector<std::string> header = {"GB/s\\MB"};
        for (Bytes b : kBuffers) header.push_back(std::to_string(b >> 20));
        Table t(header);
        for (std::size_t i = 0; i < kBandwidths.size(); ++i) {
            std::vector<std::string> row = {
                FormatDouble(kBandwidths[i], 0)};
            for (std::size_t j = 0; j < kBuffers.size(); ++j) {
                double v = grid.latency[i][j];
                std::string cell = std::isfinite(v)
                                       ? FormatDouble(v * 1e3, 2)
                                       : "inf";
                if (std::isfinite(v) && v <= best * 1.02) cell += "*";
                row.push_back(cell);
            }
            t.AddRow(row);
        }
        t.Print(std::cout);
    }

    // Envelope summary: how many near-minimal cells each framework has
    // (the paper's red-envelope "triangle" appears for SoMa only).
    std::cout << "\n=== Envelope summary (near-minimal cells per grid) "
                 "===\n";
    Table t({"net", "batch", "scheme", "cells within 2% of min"});
    for (const GridResult &grid : g_grids) {
        double best = 1e30;
        int count = 0;
        for (const auto &row : grid.latency)
            for (double v : row) best = std::min(best, v);
        for (const auto &row : grid.latency)
            for (double v : row)
                if (std::isfinite(v) && v <= best * 1.02) ++count;
        t.AddRow({grid.net, std::to_string(grid.batch),
                  grid.use_soma ? "soma" : "cocco", std::to_string(count)});
    }
    t.Print(std::cout);
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::InitBenchJson(&argc, argv);
    SearchProfile profile = ProfileFromEnv();
    std::cout << "bench_fig7_dse profile=" << ToString(profile) << "\n";
    for (const char *net : NetsFor(profile)) {
        for (int batch : BatchesFor(profile)) {
            for (bool use_soma : {false, true}) {
                std::string name = std::string("fig7/") + net + "/bs" +
                                   std::to_string(batch) +
                                   (use_soma ? "/soma" : "/cocco");
                benchmark::RegisterBenchmark(
                    name.c_str(),
                    [net, batch, use_soma](benchmark::State &state) {
                        RunGrid(state, net, batch, use_soma);
                    })
                    ->Unit(benchmark::kSecond)
                    ->Iterations(1);
            }
        }
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    PrintGrids();
    bench::JsonSink::Instance().Flush();
    return 0;
}

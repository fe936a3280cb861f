/**
 * @file
 * Fig. 3 + the Sec. III-B motivation numbers: the DRAM-access vs
 * operation-count imbalance, per layer (a,b) and per Cocco-scheduled
 * tile (c,d), for ResNet-50 and Transformer-Large on the default edge
 * accelerator at batch 1.
 *
 * The paper's observation to reproduce: the per-tile scatter is "more
 * spread out" than the per-layer scatter — after fusion, many tiles
 * have zero DRAM demand while first-of-layer tiles concentrate it, so
 * the dispersion of the DRAM/ops ratio grows. The bench prints the
 * scatter statistics plus the double-buffer DRAM/compute utilizations
 * quoted in Sec. III-B (52.69%/62.64% and 72.45%/45.84%).
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "corearray/core_array.h"
#include "notation/parser.h"
#include "search/dlsa_heuristics.h"
#include "sim/evaluator.h"

namespace {

using namespace soma;
using namespace soma::bench;

struct Scatter {
    std::vector<double> dram;  ///< normalized DRAM bytes per point
    std::vector<double> ops;   ///< normalized ops per point
    int zero_dram_points = 0;

    void Normalize()
    {
        auto norm = [](std::vector<double> &v) {
            double mx = 0;
            for (double x : v) mx = std::max(mx, x);
            if (mx > 0)
                for (double &x : v) x /= mx;
        };
        norm(dram);
        norm(ops);
    }

    /** Dispersion proxy: mean distance from the dram==ops diagonal. */
    double Spread() const
    {
        double s = 0;
        for (std::size_t i = 0; i < dram.size(); ++i)
            s += std::abs(dram[i] - ops[i]);
        return dram.empty() ? 0 : s / dram.size();
    }
};

/** Per-layer scatter: each layer alone (weights + in/out fmaps). */
Scatter
LayerScatter(const Graph &g)
{
    Scatter s;
    for (LayerId id = 0; id < g.NumLayers(); ++id) {
        const Layer &l = g.layer(id);
        Region full = l.FullRegion(g.batch());
        double dram = static_cast<double>(l.weightBytes());
        for (const InputRef &in : l.inputs()) {
            int c, h, w;
            if (in.producer == kNoLayer) {
                c = in.ext.channels; h = in.ext.height; w = in.ext.width;
            } else {
                const Layer &p = g.layer(in.producer);
                c = p.outChannels(); h = p.outHeight(); w = p.outWidth();
            }
            dram += static_cast<double>(l.InputBytes(in, full, c, h, w));
        }
        dram += static_cast<double>(l.OutputBytes(full));
        s.dram.push_back(dram);
        s.ops.push_back(static_cast<double>(l.OpsForRegion(full)));
        if (dram == 0) ++s.zero_dram_points;
    }
    s.Normalize();
    return s;
}

/** Per-tile scatter under the Cocco schedule. */
Scatter
TileScatter(const Graph &, const ParsedSchedule &p)
{
    Scatter s;
    std::vector<double> tile_dram(p.NumTiles(), 0.0);
    for (const DramTensor &t : p.tensors)
        tile_dram[t.first_use] += static_cast<double>(t.bytes);
    for (int i = 0; i < p.NumTiles(); ++i) {
        s.dram.push_back(tile_dram[i]);
        s.ops.push_back(static_cast<double>(p.tiles[i].cost.ops));
        if (tile_dram[i] == 0) ++s.zero_dram_points;
    }
    s.Normalize();
    return s;
}

struct Fig3Result {
    std::string net;
    Scatter layers;
    Scatter tiles;
    double dram_util = 0, compute_util_time = 0;
};

std::vector<Fig3Result> g_results;

void
RunNet(benchmark::State &state, const char *model)
{
    for (auto _ : state) {
        Graph g = BuildModelByName(model, 1);
        HardwareConfig hw = EdgeAccelerator();
        SearchResult cocco = RunCocco(g, hw,
                                      CoccoOptionsFor(ProfileFromEnv(), 1));
        Fig3Result res;
        res.net = model;
        res.layers = LayerScatter(g);
        if (cocco.report.valid) {
            res.tiles = TileScatter(g, cocco.parsed);
            // Sec. III-B utilizations: busy time / total runtime under
            // the double-buffer Cocco schedule.
            res.dram_util = cocco.report.dram_util;
            res.compute_util_time =
                cocco.report.compute_busy / cocco.report.latency;
        }
        g_results.push_back(res);
        state.counters["tile_spread"] = res.tiles.Spread();
        state.counters["layer_spread"] = res.layers.Spread();
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::InitBenchJson(&argc, argv);
    std::cout << "bench_fig3_imbalance profile="
              << ToString(ProfileFromEnv()) << "\n";
    benchmark::RegisterBenchmark("fig3/resnet50", RunNet, "resnet50")
        ->Unit(benchmark::kSecond)->Iterations(1);
    benchmark::RegisterBenchmark("fig3/transformer-large", RunNet,
                                 "transformer-large")
        ->Unit(benchmark::kSecond)->Iterations(1);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table t({"net", "points", "granularity", "spread (|dram-ops|)",
             "zero-DRAM points", "near-axis share"});
    for (const Fig3Result &r : g_results) {
        auto near_axis = [](const Scatter &s) {
            int n = 0;
            for (std::size_t i = 0; i < s.dram.size(); ++i) {
                if (s.dram[i] < 0.05 || s.ops[i] < 0.05) ++n;
            }
            return s.dram.empty() ? 0.0
                                  : static_cast<double>(n) / s.dram.size();
        };
        t.AddRow({r.net, std::to_string(r.layers.dram.size()), "layer",
                  FormatDouble(r.layers.Spread()),
                  std::to_string(r.layers.zero_dram_points),
                  FormatDouble(near_axis(r.layers), 2)});
        t.AddRow({r.net, std::to_string(r.tiles.dram.size()), "tile",
                  FormatDouble(r.tiles.Spread()),
                  std::to_string(r.tiles.zero_dram_points),
                  FormatDouble(near_axis(r.tiles), 2)});
    }
    std::cout << "\n=== Fig. 3: DRAM access vs ops imbalance ===\n";
    std::cout << "(expected shape: tile-granularity rows are more spread "
                 "out than layer rows,\n with many zero-DRAM tiles)\n";
    t.Print(std::cout);

    std::cout << "\n=== Sec. III-B double-buffer utilizations under Cocco "
                 "===\n";
    Table u({"net", "DRAM util%", "compute-busy%", "paper"});
    for (const Fig3Result &r : g_results) {
        u.AddRow({r.net, FormatDouble(r.dram_util * 100, 2),
                  FormatDouble(r.compute_util_time * 100, 2),
                  r.net == "resnet50" ? "52.69 / 62.64" : "72.45 / 45.84"});
    }
    u.Print(std::cout);
    bench::JsonSink::Instance().Flush();
    return 0;
}

/**
 * @file
 * Fig. 6 + Sec. VI-B statistics: the overall comparison between Cocco,
 * SoMa stage 1 (Ours_1) and SoMa stage 2 (Ours_2) over the workload x
 * platform x batch grid.
 *
 * For each configuration the table prints the quantities plotted in
 * Fig. 6: normalized energy (Cocco = 1) split into core-array and DRAM
 * energy, computing-resource utilization (performance), theoretical
 * maximum utilization (blue diamonds), and average buffer utilization.
 * The stats block reproduces the aggregate claims of Sec. VI-B
 * (speedups, energy reduction, LG/tile counts, gap to the theoretical
 * bound).
 *
 * Profiles: SOMA_BENCH_PROFILE=quick|default|full (batch sets {1} /
 * {1,4} / {1,4,16,64}; see DESIGN.md for the scaled-down budgets).
 */
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>
#include <map>

#include "bench_common.h"
#include "common/table.h"
#include "common/thread_annotations.h"

namespace {

using namespace soma;
using namespace soma::bench;

Mutex g_mutex;
std::vector<ComparisonRow> g_rows SOMA_GUARDED_BY(g_mutex);

void
RunConfig(benchmark::State &state, const WorkloadConfig &cfg, int batch)
{
    for (auto _ : state) {
        ComparisonRow row = RunComparison(cfg, batch, ProfileFromEnv(),
                                          /*seed=*/1);
        {
            MutexLock lock(g_mutex);
            g_rows.push_back(row);
        }
        if (row.cocco.valid && row.ours2.valid) {
            state.counters["speedup"] =
                row.cocco.latency / row.ours2.latency;
            state.counters["energy_red_pct"] =
                (1.0 - row.ours2.EnergyJ() / row.cocco.EnergyJ()) * 100.0;
            state.counters["util_pct"] = row.ours2.compute_util * 100.0;
        }
    }
}

void
RegisterAll()
{
    SearchProfile profile = ProfileFromEnv();
    for (const WorkloadConfig &cfg : Fig6Grid()) {
        for (int batch : BatchesFor(profile)) {
            std::string name = "fig6/" + cfg.label +
                               (cfg.cloud ? "/cloud" : "/edge") + "/bs" +
                               std::to_string(batch);
            benchmark::RegisterBenchmark(
                name.c_str(),
                [cfg, batch](benchmark::State &state) {
                    RunConfig(state, cfg, batch);
                })
                ->Unit(benchmark::kSecond)
                ->Iterations(1);
        }
    }
}

void
PrintFigure()
{
    // Runs after benchmark::RunSpecifiedBenchmarks has joined every
    // worker; the lock keeps the analysis (and TSan) satisfied.
    MutexLock lock(g_mutex);
    Table t({"workload", "platform", "bs", "scheme", "norm core E",
             "norm DRAM E", "util%", "theory%", "avg buf%", "LGs",
             "tiles", "dram gap%"});
    for (const ComparisonRow &row : g_rows) {
        double base_e = row.cocco.valid ? row.cocco.EnergyJ() : 1.0;
        Bytes gbuf = PlatformFor(row.cfg).gbuf_bytes;
        // The banked-DRAM validation gap is computed for the winning
        // (ours_2) schedule only; the other rows show "-".
        auto add = [&](const char *scheme, const EvalReport &r,
                       bool with_gap) {
            if (!r.valid) {
                t.AddRow({row.cfg.label, row.cfg.cloud ? "cloud" : "edge",
                          std::to_string(row.batch), scheme, "-", "-", "-",
                          "-", "-", "-", "-", "-"});
                return;
            }
            t.AddRow({row.cfg.label, row.cfg.cloud ? "cloud" : "edge",
                      std::to_string(row.batch), scheme,
                      FormatDouble(r.core_energy_j / base_e),
                      FormatDouble(r.dram_energy_j / base_e),
                      FormatDouble(r.compute_util * 100, 1),
                      FormatDouble(r.theory_max_util * 100, 1),
                      FormatDouble(r.avg_buffer / gbuf * 100, 1),
                      std::to_string(r.num_lgs),
                      std::to_string(r.num_tiles),
                      with_gap && row.memory_gap_ok
                          ? FormatDouble(row.memory_gap_pct, 1)
                          : "-"});
        };
        add("cocco", row.cocco, false);
        add("ours_1", row.ours1, false);
        add("ours_2", row.ours2, true);
    }
    std::cout << "\n=== Fig. 6: Overall Comparisons (Cocco vs Ours_1 vs "
                 "Ours_2) ===\n";
    t.Print(std::cout);

    // --- Sec. VI-B aggregate statistics ---
    double s1_speedup = 0, s2_speedup = 0, total_speedup = 0;
    double energy_red = 0, theory_gap = 0;
    double mem_gap = 0;
    int mem_gap_n = 0;
    double cocco_lgs = 0, ours_lgs = 0, cocco_tiles = 0, ours_tiles = 0;
    double ours_flgs = 0;
    int n = 0;
    // Per-workload averages (paper reports per-network speedups).
    std::map<std::string, std::pair<double, int>> per_net;
    for (const ComparisonRow &row : g_rows) {
        if (!row.cocco.valid || !row.ours1.valid || !row.ours2.valid)
            continue;
        ++n;
        const std::string id = "fig6/" + row.cfg.label +
                               (row.cfg.cloud ? "/cloud" : "/edge") +
                               "/bs" + std::to_string(row.batch);
        JsonSink::Instance().Add(id, "speedup_vs_cocco",
                                 row.cocco.latency / row.ours2.latency);
        JsonSink::Instance().Add(
            id, "energy_reduction",
            1.0 - row.ours2.EnergyJ() / row.cocco.EnergyJ());
        JsonSink::Instance().Add(id, "compute_util",
                                 row.ours2.compute_util);
        if (row.memory_gap_ok)
            JsonSink::Instance().Add(id, "memory_gap_pct",
                                     row.memory_gap_pct);
        s1_speedup += row.cocco.latency / row.ours1.latency;
        s2_speedup += row.ours1.latency / row.ours2.latency;
        total_speedup += row.cocco.latency / row.ours2.latency;
        energy_red += 1.0 - row.ours2.EnergyJ() / row.cocco.EnergyJ();
        theory_gap +=
            1.0 - row.ours2.compute_util / row.ours2.theory_max_util;
        if (row.memory_gap_ok) {
            mem_gap += row.memory_gap_pct;
            ++mem_gap_n;
        }
        cocco_lgs += row.cocco.num_lgs;
        ours_lgs += row.ours2.num_lgs;
        cocco_tiles += row.cocco.num_tiles;
        ours_tiles += row.ours2.num_tiles;
        ours_flgs += row.ours2.num_flgs;
        auto &acc = per_net[row.cfg.label];
        acc.first += row.cocco.latency / row.ours2.latency;
        acc.second += 1;
    }
    if (n == 0) {
        std::cout << "\n(no valid configurations)\n";
        return;
    }
    JsonSink::Instance().Add("fig6/aggregate", "avg_total_speedup",
                             total_speedup / n);
    JsonSink::Instance().Add("fig6/aggregate", "avg_stage1_speedup",
                             s1_speedup / n);
    JsonSink::Instance().Add("fig6/aggregate", "avg_stage2_speedup",
                             s2_speedup / n);
    JsonSink::Instance().Add("fig6/aggregate", "avg_energy_reduction",
                             energy_red / n);
    JsonSink::Instance().Add("fig6/aggregate", "avg_theory_gap",
                             theory_gap / n);
    if (mem_gap_n > 0)
        JsonSink::Instance().Add("fig6/aggregate", "avg_memory_gap_pct",
                                 mem_gap / mem_gap_n);
    std::cout << "\n=== Sec. VI-B statistics (paper values in brackets) "
                 "===\n";
    std::cout << "avg stage-1 speedup over Cocco: "
              << FormatDouble(s1_speedup / n, 2) << "x  [1.82x]\n";
    std::cout << "avg stage-2 speedup over stage 1: "
              << FormatDouble(s2_speedup / n, 2) << "x  [1.16x]\n";
    std::cout << "avg total speedup over Cocco: "
              << FormatDouble(total_speedup / n, 2) << "x  [2.11x]\n";
    std::cout << "avg energy reduction: "
              << FormatDouble(energy_red / n * 100, 1) << "%  [37.3%]\n";
    std::cout << "avg gap to theoretical max utilization: "
              << FormatDouble(theory_gap / n * 100, 1) << "%  [3.1%]\n";
    if (mem_gap_n > 0)
        std::cout << "avg analytical-vs-banked DRAM latency gap: "
                  << FormatDouble(mem_gap / mem_gap_n, 1) << "%\n";
    std::cout << "avg LGs per network: cocco "
              << FormatDouble(cocco_lgs / n, 1) << " [13.0], ours "
              << FormatDouble(ours_lgs / n, 1) << " [2.5], ours FLGs "
              << FormatDouble(ours_flgs / n, 1) << " [3.9]\n";
    std::cout << "avg computing tiles per network: cocco "
              << FormatDouble(cocco_tiles / n, 0) << " [7962], ours "
              << FormatDouble(ours_tiles / n, 0) << " [751]\n";
    std::cout << "\nper-workload total speedup:\n";
    for (const auto &[net, acc] : per_net) {
        std::cout << "  " << net << ": "
                  << FormatDouble(acc.first / acc.second, 2) << "x\n";
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::InitBenchJson(&argc, argv);
    std::cout << "bench_fig6_overall profile="
              << ToString(ProfileFromEnv()) << "\n";
    RegisterAll();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    PrintFigure();
    bench::JsonSink::Instance().Flush();
    return 0;
}

/**
 * @file
 * soma_perfbench: one workload, one run, one JSON result line.
 *
 *   soma_perfbench --workload <cnn-default|full-banked|sweep-cache>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *                  --work-dir <dir>
 *
 * Untraced (--trace 0): repeats untraced timed passes until --seconds
 * of pass time is spent and reports the end-to-end metrics. Traced
 * (--trace 1): alternates untraced and traced passes for the same time
 * and reports the per-layer metrics. Every reply is oracle-checked.
 * Human-readable "name value unit" lines come first; the last line is
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */
#include <sys/resource.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>

#include "bench.h"

namespace {

using namespace perfbench;
using soma::Json;

constexpr int kSetupRepsPerPass = 11;

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

double
PeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

/** Geomean over (seed set, model) of cocco latency / soma latency (0
 *  when the workload runs no cocco point). */
double
SpeedupVsCocco(const std::vector<const Pass *> &passes)
{
    std::map<std::pair<int, std::string>, std::map<std::string, double>>
        latency;
    for (const Pass *p : passes)
        for (const Record &r : p->records)
            if (r.result.ok)
                latency[{p->seed_set, r.result.model}][r.result.scheduler] =
                    r.result.report.latency;
    std::vector<double> ratios;
    for (const auto &kv : latency) {
        auto soma = kv.second.find("soma"), cocco = kv.second.find("cocco");
        if (soma != kv.second.end() && cocco != kv.second.end())
            ratios.push_back(cocco->second / soma->second);
    }
    return Geomean(ratios);
}

/** Median latency of cache-served replies, in ms (0 without any). */
double
HitP50Ms(const std::vector<const Pass *> &passes)
{
    std::vector<double> hits;
    for (const Pass *p : passes)
        for (const Record &r : p->records)
            if (r.served == Served::kMemoryHit ||
                r.served == Served::kDiskHit)
                hits.push_back(r.latency_s * 1e3);
    return Median(hits);
}

std::vector<Metric>
EndToEnd(const std::vector<const Pass *> &passes, double setup_s)
{
    // Request latency quantiles cover searched replies only. On
    // sweep-cache a quantile over all replies sits where the cached and
    // searched latency classes meet, so the share of coalesced replies
    // moved it far more than any change in speed; hits have hit_p50_ms.
    std::vector<double> wall, cpu, latency;
    double wall_sum = 0, requests = 0, evaluated = 0, search_s = 0;
    // Simulated quality: geomean over distinct requests.
    std::vector<double> sim_latency_ms, sim_energy_mj;
    std::set<std::pair<int, int>> seen;
    for (const Pass *p : passes) {
        wall.push_back(p->wall_s);
        cpu.push_back(p->cpu_s);
        wall_sum += p->wall_s;
        requests += p->records.size();
        for (const Record &r : p->records) {
            if (r.result.ok && seen.insert({p->seed_set, r.point}).second) {
                sim_latency_ms.push_back(r.result.report.latency * 1e3);
                sim_energy_mj.push_back(r.result.report.EnergyJ() * 1e3);
            }
            if (r.served != Served::kSearched) continue;
            latency.push_back(r.latency_s);
            evaluated += r.result.stats.evaluated;
            search_s += r.result.stats.search_seconds;
        }
    }
    return {
        {"setup_s", setup_s, "s"},
        {"wall_s", Median(wall), "s"},
        {"cpu_s", Median(cpu), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"candidates_per_s", search_s > 0 ? evaluated / search_s : 0.0,
         "1/s"},
        {"request_p50_s", Median(latency), "s"},
        {"request_p90_s", Quantile(latency, 0.9), "s"},
        {"requests_per_s", requests / wall_sum, "1/s"},
        {"sim_latency_geomean_ms", Geomean(sim_latency_ms), "ms"},
        {"sim_energy_geomean_mj", Geomean(sim_energy_mj), "mJ"},
    };
}

int
Usage(const char *why)
{
    std::cerr << "soma_perfbench: " << why
              << "\nusage: soma_perfbench --workload "
                 "<cnn-default|full-banked|sweep-cache> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n";
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
    if (argc % 2 != 1) return Usage("flags take one value each");
    for (const char *flag : {"--workload", "--seed", "--seconds", "--trace",
                             "--work-dir"})
        if (!args.count(flag))
            return Usage((std::string("missing ") + flag).c_str());
    const std::uint64_t seed = std::strtoull(args["--seed"].c_str(),
                                             nullptr, 10);
    const double seconds = std::atof(args["--seconds"].c_str());
    const bool trace = args["--trace"] == "1";
    const std::string work_dir = args["--work-dir"];
    if (seconds <= 0) return Usage("--seconds must be positive");

    const std::string name = args["--workload"];
    Workload w;
    if (!MakeWorkload(name, seed, 0, &w)) return Usage("unknown workload");
    std::filesystem::create_directories(work_dir);

    // Closed loop: passes back to back until the time budget is spent.
    // Each untraced pass issues a fresh seed set, so the medians average
    // over many searches per point. A traced run issues each seed set
    // twice, untraced then traced: the determinism check and the trace
    // overhead compare equal requests. Set-ups are timed before every
    // pass, so their median samples the whole run, not its first moments.
    std::vector<Pass> passes;
    std::vector<double> setups;
    double measured = 0;
    for (int index = 0;; ++index) {
        const int seed_set = trace ? index / 2 : index;
        Workload set_w;
        MakeWorkload(name, seed, seed_set, &set_w);
        for (int rep = 0; rep < kSetupRepsPerPass; ++rep)
            setups.push_back(TimeSetup(set_w, work_dir, rep));
        Pass p = RunPass(set_w, work_dir, index, trace && index % 2 == 1);
        p.seed_set = seed_set;
        measured += p.wall_s;
        CheckPass(set_w, &p);
        passes.push_back(std::move(p));
        if (measured >= seconds && (!trace || passes.size() % 2 == 0))
            break;
    }

    std::vector<const Pass *> plain;
    int failed = 0, attempted = 0;
    for (const Pass &p : passes) {
        failed += p.failed;
        attempted += static_cast<int>(p.records.size());
        if (!p.traced) plain.push_back(&p);
    }

    std::vector<Metric> shown = EndToEnd(plain, Median(setups));
    const std::vector<Metric> e2e = shown;
    const double speedup = SpeedupVsCocco(plain);
    const double hit_p50 = HitP50Ms(plain);
    const double failed_frac = static_cast<double>(failed) / attempted;
    // Workload-specific figures: printed here, reported as per-layer
    // metrics (an end-to-end metric must exist, nonzero, everywhere).
    shown.push_back({"speedup_vs_cocco", speedup, "ratio"});
    shown.push_back({"hit_p50_ms", hit_p50, "ms"});
    shown.push_back({"failed_frac", failed_frac, "ratio"});

    std::cout << "workload " << w.name << ": " << passes.size()
              << " passes, " << attempted << " requests, " << failed
              << " failed the oracle\n";
    for (std::size_t i = 0; i < passes.size(); ++i)
        std::cout << "  pass " << i << (passes[i].traced ? " traced" : "")
                  << ": wall " << passes[i].wall_s << " s, cpu "
                  << passes[i].cpu_s << " s\n";
    if (!trace)
        for (const Metric &m : shown)
            std::cout << "  " << m.name << " " << m.value << " " << m.unit
                      << "\n";

    Json metrics = Json::Object();
    auto add = [&metrics](const std::string &name, double value,
                          const std::string &unit) {
        metrics.Set(name, Json::Object()
                              .Set("value", Json::Number(value))
                              .Set("unit", Json::Str(unit)));
    };
    if (trace) {
        std::map<std::string, double> layers = LayerMetrics(w, passes);
        layers["speedup_vs_cocco"] = speedup;
        layers["hit_p50_ms"] = hit_p50;
        for (const auto &nu : LayerMetricUnits()) {
            std::cout << "  " << nu.first << " " << layers[nu.first] << " "
                      << nu.second << "\n";
            add(nu.first, layers[nu.first], nu.second);
        }
    } else {
        for (const Metric &m : e2e) add(m.name, m.value, m.unit);
    }
    Json result = Json::Object();
    result.Set("correct", Json::Bool(failed == 0));
    result.Set("attempted", Json::Int(attempted));
    result.Set("failed", Json::Int(failed));
    result.Set("metrics", std::move(metrics));
    std::cout << result.Dump() << std::endl;
    std::filesystem::remove_all(work_dir);
    return 0;
}

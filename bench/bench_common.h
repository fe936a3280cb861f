/**
 * @file
 * Shared infrastructure for the paper-reproduction benches: run
 * profiles (quick / default / full via SOMA_BENCH_PROFILE), the
 * workload x platform grid of Sec. VI-A, a result collector that
 * prints the per-figure tables after google-benchmark finishes, and a
 * --json <path> sink that writes {bench, metric, value} rows so the
 * perf trajectory can be tracked across PRs (BENCH_*.json).
 */
#ifndef SOMA_BENCH_BENCH_COMMON_H
#define SOMA_BENCH_BENCH_COMMON_H

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/cocco.h"
#include "common/json.h"
#include "common/thread_annotations.h"
#include "hw/hardware.h"
#include "search/soma.h"
#include "sim/memory_validation.h"
#include "workload/models.h"

namespace soma {
namespace bench {

/** SOMA_BENCH_PROFILE as a SearchProfile; unset or unknown values
 *  fall back to the default profile. */
inline SearchProfile
ProfileFromEnv()
{
    SearchProfile profile = SearchProfile::kDefault;
    if (const char *env = std::getenv("SOMA_BENCH_PROFILE"))
        ParseSearchProfile(env, &profile);
    return profile;
}

/**
 * SomaOptionsFor @p profile as the bench tables were recorded: the
 * default profile runs 2 buffer-allocator iterations, one fewer than
 * the API's default.
 */
inline SomaOptions
BenchSomaOptions(SearchProfile profile, std::uint64_t seed)
{
    SomaOptions opts = SomaOptionsFor(profile, seed);
    if (profile == SearchProfile::kDefault) opts.alloc.max_iterations = 2;
    return opts;
}

/** Batch sizes swept per profile (the paper uses 1..64). */
inline std::vector<int>
BatchesFor(SearchProfile p)
{
    switch (p) {
      case SearchProfile::kQuick: return {1};
      case SearchProfile::kDefault: return {1, 4};
      case SearchProfile::kFull: return {1, 4, 16, 64};
    }
    return {1};
}

/**
 * Machine-readable metric sink behind the benches' --json <path> flag.
 * Collects {bench, metric, value} rows during the run and writes them
 * as a JSON array on Flush (e.g. BENCH_fig6.json), so per-PR perf
 * trajectories can be diffed/plotted without scraping tables.
 */
class JsonSink {
  public:
    static JsonSink &Instance()
    {
        static JsonSink sink;
        return sink;
    }

    void Enable(std::string path)
    {
        MutexLock lock(mutex_);
        path_ = std::move(path);
    }

    bool enabled() const
    {
        MutexLock lock(mutex_);
        return !path_.empty();
    }

    void Add(const std::string &bench, const std::string &metric,
             double value)
    {
        MutexLock lock(mutex_);
        if (path_.empty()) return;
        Json row = Json::Object();
        row.Set("bench", Json::Str(bench));
        row.Set("metric", Json::Str(metric));
        row.Set("value", Json::Number(value));
        rows_.Append(std::move(row));
    }

    /** Writes the collected rows; true on success or when disabled. */
    bool Flush()
    {
        MutexLock lock(mutex_);
        if (path_.empty()) return true;
        std::ofstream out(path_);
        if (!out) {
            std::cerr << "cannot write --json file " << path_ << "\n";
            return false;
        }
        out << rows_.Dump(2) << "\n";
        std::cout << "wrote " << rows_.size() << " metric rows to "
                  << path_ << "\n";
        return static_cast<bool>(out);
    }

  private:
    JsonSink() : rows_(Json::Array()) {}

    mutable Mutex mutex_;  ///< lock order: leaf
    std::string path_ SOMA_GUARDED_BY(mutex_);
    Json rows_ SOMA_GUARDED_BY(mutex_);
};

/**
 * Strips "--json <path>" / "--json=<path>" from argv (google-benchmark
 * rejects flags it does not know) and enables the JsonSink. Call at the
 * top of main, before benchmark::Initialize.
 */
inline void
InitBenchJson(int *argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < *argc) {
            JsonSink::Instance().Enable(argv[++i]);
        } else if (arg.rfind("--json=", 0) == 0) {
            JsonSink::Instance().Enable(arg.substr(7));
        } else {
            argv[out++] = argv[i];
        }
    }
    *argc = out;
}

/** One evaluation configuration of Fig. 6. */
struct WorkloadConfig {
    std::string workload;  ///< model-zoo name
    std::string label;     ///< display name used in tables
    bool cloud = false;    ///< cloud (128 TOPS) vs edge (16 TOPS)
};

/**
 * The Fig. 6 grid: the four CNNs on both platforms, GPT-2-Small on the
 * edge and GPT-2-XL on the cloud (Sec. VI-A2).
 */
inline std::vector<WorkloadConfig>
Fig6Grid()
{
    std::vector<WorkloadConfig> grid;
    for (const char *net : {"resnet50", "resnet101", "ires", "randwire"}) {
        grid.push_back({net, net, false});
        grid.push_back({net, net, true});
    }
    grid.push_back({"gpt2s-prefill", "gpt2-prefill", false});
    grid.push_back({"gpt2xl-prefill", "gpt2-prefill", true});
    grid.push_back({"gpt2s-decode", "gpt2-decode", false});
    grid.push_back({"gpt2xl-decode", "gpt2-decode", true});
    return grid;
}

inline HardwareConfig
PlatformFor(const WorkloadConfig &cfg)
{
    return cfg.cloud ? CloudAccelerator() : EdgeAccelerator();
}

/** Results of one Cocco-vs-SoMa configuration. */
struct ComparisonRow {
    WorkloadConfig cfg;
    int batch = 1;
    EvalReport cocco;
    EvalReport ours1;
    EvalReport ours2;
    /** Analytical-vs-banked latency gap of the winning SoMa schedule
     *  (ValidateMemoryTiming); valid only when memory_gap_ok. */
    bool memory_gap_ok = false;
    double memory_gap_pct = 0.0;
};

/** Run the three schemes of Fig. 6 for one configuration. */
inline ComparisonRow
RunComparison(const WorkloadConfig &cfg, int batch, SearchProfile profile,
              std::uint64_t seed)
{
    ComparisonRow row;
    row.cfg = cfg;
    row.batch = batch;
    Graph graph = BuildModelByName(cfg.workload, batch);
    HardwareConfig hw = PlatformFor(cfg);
    SearchResult cocco = RunCocco(graph, hw, CoccoOptionsFor(profile, seed));
    SearchResult ours = RunSoma(graph, hw, BenchSomaOptions(profile, seed));
    row.cocco = cocco.report;
    row.ours1 = ours.stage1_report;
    row.ours2 = ours.report;
    if (ours.report.valid && ours.parsed.valid) {
        MemoryValidationResult v =
            ValidateMemoryTiming(graph, hw, ours.parsed, ours.dlsa);
        if (v.ok) {
            row.memory_gap_ok = true;
            row.memory_gap_pct = v.gap_pct;
        }
    }
    return row;
}

}  // namespace bench
}  // namespace soma

#endif  // SOMA_BENCH_BENCH_COMMON_H

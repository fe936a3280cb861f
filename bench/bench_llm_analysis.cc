/**
 * @file
 * Sec. VI-B LLM analysis: GPT-2 decode vs prefill across batch sizes.
 *
 * Reproduces the paper's two bolded findings:
 *  (1) decode has almost no DRAM-scheduling headroom — its compute
 *      density is so low that latency is pure weight + KV-cache
 *      bandwidth (SoMa ~= Cocco, util ~= theoretical max);
 *  (2) decode utilization grows sublinearly with batch size because the
 *      KV cache grows with batch while weights do not (paper series:
 *      GPT-2-Small 0.66/2.03/4.26/5.84%, GPT-2-XL 0.60/1.90/4.13/5.83%
 *      for batch 1/4/16/64).
 */
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/table.h"

namespace {

using namespace soma;
using namespace soma::bench;

struct LlmRow {
    std::string model;
    std::string phase;
    int batch;
    EvalReport cocco;
    EvalReport ours;
    double kv_over_weights;
};

std::vector<LlmRow> g_rows;

void
RunPoint(benchmark::State &state, bool xl, bool decode, int batch)
{
    for (auto _ : state) {
        Gpt2Config cfg = xl ? Gpt2Xl() : Gpt2Small();
        int tokens = xl ? 1024 : 512;
        Graph g = decode ? BuildGpt2Decode(cfg, batch, tokens)
                         : BuildGpt2Prefill(cfg, batch, tokens);
        HardwareConfig hw = xl ? CloudAccelerator() : EdgeAccelerator();
        SearchProfile profile = ProfileFromEnv();

        LlmRow row;
        row.model = xl ? "gpt2-xl" : "gpt2-small";
        row.phase = decode ? "decode" : "prefill";
        row.batch = batch;
        row.cocco = RunCocco(g, hw, CoccoOptionsFor(profile, 1)).report;
        row.ours = RunSoma(g, hw, BenchSomaOptions(profile, 1)).report;
        row.kv_over_weights =
            2.0 * cfg.layers * batch * tokens * cfg.hidden /
            static_cast<double>(g.TotalWeightBytes());
        g_rows.push_back(row);
        if (row.ours.valid)
            state.counters["util_pct"] = row.ours.compute_util * 100.0;
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::InitBenchJson(&argc, argv);
    SearchProfile profile = ProfileFromEnv();
    std::cout << "bench_llm_analysis profile=" << ToString(profile)
              << "\n";
    std::vector<int> batches =
        profile == SearchProfile::kQuick ? std::vector<int>{1, 4}
                                         : std::vector<int>{1, 4, 16, 64};
    for (bool xl : {false, true}) {
        if (xl && profile == SearchProfile::kQuick) continue;
        for (int batch : batches) {
            for (bool decode : {false, true}) {
                // The prefill side only needs a few points to show the
                // contrast; decode is the subject of the batch sweep.
                // GPT-2-XL prefill searches are the most expensive
                // configurations, so the XL contrast uses batch 1 only.
                if (!decode && batch > (xl ? 1 : 4)) continue;
                std::string name =
                    std::string("llm/") + (xl ? "xl" : "small") + "/" +
                    (decode ? "decode" : "prefill") + "/bs" +
                    std::to_string(batch);
                benchmark::RegisterBenchmark(
                    name.c_str(),
                    [xl, decode, batch](benchmark::State &state) {
                        RunPoint(state, xl, decode, batch);
                    })
                    ->Unit(benchmark::kSecond)
                    ->Iterations(1);
            }
        }
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    Table t({"model", "phase", "batch", "soma util%", "theory%",
             "soma/cocco speedup", "dram util%", "KV/weights"});
    for (const LlmRow &r : g_rows) {
        if (!r.ours.valid) continue;
        t.AddRow({r.model, r.phase, std::to_string(r.batch),
                  FormatDouble(r.ours.compute_util * 100, 2),
                  FormatDouble(r.ours.theory_max_util * 100, 2),
                  r.cocco.valid
                      ? FormatDouble(r.cocco.latency / r.ours.latency, 2)
                      : std::string("-"),
                  FormatDouble(r.ours.dram_util * 100, 1),
                  FormatDouble(r.kv_over_weights, 2)});
    }
    std::cout << "\n=== Sec. VI-B LLM analysis ===\n";
    std::cout << "(paper decode-util series: small 0.66/2.03/4.26/5.84%, "
                 "xl 0.60/1.90/4.13/5.83% at bs 1/4/16/64;\n decode "
                 "speedup over Cocco ~1.14x; prefill ~2.55x)\n";
    t.Print(std::cout);

    // The sublinearity check: utilization growth ratio per 4x batch.
    std::cout << "\ndecode utilization growth per 4x batch (sublinear "
                 "< 4):\n";
    for (const char *model : {"gpt2-small", "gpt2-xl"}) {
        std::vector<double> utils;
        for (const LlmRow &r : g_rows) {
            if (r.model == model && r.phase == "decode" && r.ours.valid)
                utils.push_back(r.ours.compute_util);
        }
        for (std::size_t i = 1; i < utils.size(); ++i) {
            std::cout << "  " << model << " x" << (1 << (2 * i)) << ": "
                      << FormatDouble(utils[i] / utils[i - 1], 2) << "\n";
        }
    }
    bench::JsonSink::Instance().Flush();
    return 0;
}

/**
 * @file
 * Engineering microbenchmarks: throughput of the LFA parse and the
 * timeline evaluator — the operations at the heart of every SA
 * iteration. Not a paper figure; used to keep the search fast.
 *
 * The evaluator is measured three ways — null seam (the legacy inline
 * DRAM math), the analytical MemoryModel backend, and the banked
 * backend — and the analytical-vs-legacy gap is emitted as an
 * `overhead_pct` row. CI gates that row (< 2%): the seam must stay a
 * free abstraction on the search hot path.
 *
 * Timing uses interleaved rounds with a best-of reduction so one
 * noisy round (scheduler preemption, frequency ramp) cannot charge a
 * phantom overhead to whichever variant it happened to hit.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "corearray/core_array.h"
#include "hw/banked_dram.h"
#include "hw/memory_model.h"
#include "notation/parser.h"
#include "obs/clock.h"
#include "search/dlsa_heuristics.h"
#include "search/lfa_stage.h"
#include "sim/evaluator.h"

namespace {

using namespace soma;
using obs::MonotonicNow;
using obs::MonotonicTime;
using obs::SecondsSince;

struct Row {
    std::string name;
    int iters = 0;
    double seconds = 0.0;  ///< best round
    double PerSecond() const
    {
        return seconds > 0.0 ? iters / seconds : 0.0;
    }
};

void
PrintRow(const Row &r)
{
    std::printf("  %-26s %8d iters %10.4f s %12.0f /s\n", r.name.c_str(),
                r.iters, r.seconds, r.PerSecond());
    bench::JsonSink::Instance().Add("micro_eval/" + r.name,
                                    "iters_per_second", r.PerSecond());
}

/** Time @p iters calls of @p fn, returning the wall seconds. */
template <typename Fn>
double
TimeLoop(int iters, Fn &&fn)
{
    const MonotonicTime t0 = MonotonicNow();
    for (int i = 0; i < iters; ++i) fn();
    return SecondsSince(t0);
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::InitBenchJson(&argc, argv);
    const SearchProfile profile = bench::ProfileFromEnv();
    // Even the quick profile needs real sample sizes: the CI overhead
    // gate is 2%, so each round must be long enough (and the best-of
    // wide enough) that scheduler noise stays well under that.
    const int eval_iters = profile == SearchProfile::kQuick  ? 150
                           : profile == SearchProfile::kFull ? 600
                                                             : 250;
    const int parse_iters = eval_iters / 4 + 1;
    const int rounds = profile == SearchProfile::kQuick ? 15 : 9;

    Graph graph = BuildResNet50(1);
    HardwareConfig hw_legacy = EdgeAccelerator();
    HardwareConfig hw_analytical = EdgeAccelerator();
    hw_analytical.memory_model = &AnalyticalMemoryModel();
    HardwareConfig hw_banked = EdgeAccelerator();
    hw_banked.memory_model = &BankedMemoryModel();

    CoreArrayEvaluator core_eval(graph, hw_legacy);
    LfaEncoding lfa = MakeInitialLfa(graph, hw_legacy, 128);
    ParsedSchedule parsed = ParseLfa(graph, lfa, core_eval);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(parsed);
    const Ops total_ops = graph.TotalOps();
    const Bytes budget = hw_legacy.gbuf_bytes;

    double sink = 0.0;
    auto eval_with = [&](const HardwareConfig &hw) {
        EvalReport rep =
            EvaluateSchedule(graph, hw, parsed, dlsa, budget, total_ops);
        sink += rep.latency;
    };

    Row parse{"parse_lfa/resnet50", parse_iters};
    Row legacy{"eval/resnet50/legacy", eval_iters};
    Row analytical{"eval/resnet50/analytical", eval_iters};
    Row banked{"eval/resnet50/banked", eval_iters};
    parse.seconds = legacy.seconds = 1e300;
    analytical.seconds = banked.seconds = 1e300;

    // Warm-up: touch every code path once before timing.
    eval_with(hw_legacy);
    eval_with(hw_analytical);
    eval_with(hw_banked);

    // The overhead estimate pairs each round's legacy and analytical
    // timings (adjacent in time, so a busy-machine epoch hits both)
    // and takes the median ratio — far more stable under CI-runner
    // noise than dividing two independent best-of minima.
    std::vector<double> ratios;
    ratios.reserve(rounds);
    for (int r = 0; r < rounds; ++r) {
        double s = TimeLoop(parse_iters, [&] {
            ParsedSchedule p = ParseLfa(graph, lfa, core_eval);
            sink += p.valid ? 1.0 : 0.0;
        });
        if (s < parse.seconds) parse.seconds = s;
        const double legacy_s =
            TimeLoop(eval_iters, [&] { eval_with(hw_legacy); });
        if (legacy_s < legacy.seconds) legacy.seconds = legacy_s;
        const double analytical_s =
            TimeLoop(eval_iters, [&] { eval_with(hw_analytical); });
        if (analytical_s < analytical.seconds)
            analytical.seconds = analytical_s;
        if (legacy_s > 0.0) ratios.push_back(analytical_s / legacy_s);
        s = TimeLoop(eval_iters, [&] { eval_with(hw_banked); });
        if (s < banked.seconds) banked.seconds = s;
    }
    std::sort(ratios.begin(), ratios.end());
    const double overhead_pct =
        ratios.empty() ? 0.0
                       : (ratios[ratios.size() / 2] - 1.0) * 100.0;

    std::printf("micro_eval (profile %s, resnet50 bs1, %d tiles / %d "
                "tensors, best of %d rounds)\n",
                ToString(profile), parsed.NumTiles(),
                parsed.NumTensors(), rounds);
    PrintRow(parse);
    PrintRow(legacy);
    PrintRow(analytical);
    PrintRow(banked);
    std::printf("  analytical seam overhead vs legacy: %+.3f%%\n",
                overhead_pct);
    bench::JsonSink::Instance().Add("micro_eval/analytical_seam",
                                    "overhead_pct", overhead_pct);
    if (sink == 42.0) std::printf("%f\n", sink);  // defeat DCE

    if (!bench::JsonSink::Instance().Flush()) return 1;
    return 0;
}

/**
 * @file
 * Engineering microbenchmarks: throughput of the LFA parse and the
 * timeline evaluator — the operations at the heart of every SA
 * iteration. Not a paper figure; used to keep the search fast.
 *
 * The DRAM timing backend prices every transfer in the parse, so the
 * parse is timed under both backends, the analytical one (what a null
 * HardwareConfig::memory_model resolves to) and the banked one. The
 * evaluator only reads those prices: its two rows, each on a parse
 * priced by its backend, time the same code, and CI gates only that
 * the banked one runs.
 *
 * Timing uses interleaved rounds with a best-of reduction so one
 * noisy round (scheduler preemption, frequency ramp) cannot charge a
 * phantom slowdown to whichever variant it happened to hit.
 */
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "corearray/core_array.h"
#include "hw/banked_dram.h"
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
    // Each round's loops must outlast scheduler noise, and the best-of
    // must be wide enough to skip a noisy round.
    const int eval_iters = profile == SearchProfile::kQuick  ? 150
                           : profile == SearchProfile::kFull ? 600
                                                             : 250;
    const int parse_iters = eval_iters / 4 + 1;
    const int rounds = profile == SearchProfile::kQuick ? 15 : 9;

    Graph graph = BuildResNet50(1);
    HardwareConfig hw_analytical = EdgeAccelerator();
    HardwareConfig hw_banked = EdgeAccelerator();
    hw_banked.memory_model = &BankedMemoryModel();

    CoreArrayEvaluator core_eval(graph, hw_analytical);
    CoreArrayEvaluator banked_eval(graph, hw_banked);
    LfaEncoding lfa = MakeInitialLfa(graph, hw_analytical, 128);
    ParsedSchedule parsed = ParseLfa(graph, lfa, core_eval);
    ParsedSchedule banked_parsed = ParseLfa(graph, lfa, banked_eval);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(parsed);
    const Ops total_ops = graph.TotalOps();
    const Bytes budget = hw_analytical.gbuf_bytes;

    double sink = 0.0;
    auto eval_with = [&](const HardwareConfig &hw, const ParsedSchedule &p) {
        EvalReport rep =
            EvaluateSchedule(graph, hw, p, dlsa, budget, total_ops);
        sink += rep.latency;
    };

    Row parse{"parse_lfa/resnet50", parse_iters};
    Row banked_parse{"parse_lfa/resnet50/banked", parse_iters};
    Row analytical{"eval/resnet50/analytical", eval_iters};
    Row banked{"eval/resnet50/banked", eval_iters};
    parse.seconds = banked_parse.seconds = analytical.seconds =
        banked.seconds = 1e300;

    // Warm-up: touch every code path once before timing.
    eval_with(hw_analytical, parsed);
    eval_with(hw_banked, banked_parsed);

    for (int r = 0; r < rounds; ++r) {
        double s = TimeLoop(parse_iters, [&] {
            ParsedSchedule p = ParseLfa(graph, lfa, core_eval);
            sink += p.valid ? 1.0 : 0.0;
        });
        if (s < parse.seconds) parse.seconds = s;
        s = TimeLoop(parse_iters, [&] {
            ParsedSchedule p = ParseLfa(graph, lfa, banked_eval);
            sink += p.valid ? 1.0 : 0.0;
        });
        if (s < banked_parse.seconds) banked_parse.seconds = s;
        s = TimeLoop(eval_iters,
                     [&] { eval_with(hw_analytical, parsed); });
        if (s < analytical.seconds) analytical.seconds = s;
        s = TimeLoop(eval_iters,
                     [&] { eval_with(hw_banked, banked_parsed); });
        if (s < banked.seconds) banked.seconds = s;
    }

    std::printf("micro_eval (profile %s, resnet50 bs1, %d tiles / %d "
                "tensors, best of %d rounds)\n",
                ToString(profile), parsed.NumTiles(),
                parsed.NumTensors(), rounds);
    PrintRow(parse);
    PrintRow(banked_parse);
    PrintRow(analytical);
    PrintRow(banked);
    if (sink == 42.0) std::printf("%f\n", sink);  // defeat DCE

    if (!bench::JsonSink::Instance().Flush()) return 1;
    return 0;
}

#include "search/buffer_allocator.h"

#include <cmath>

#include "common/logging.h"
#include "obs/trace.h"
#include "search/dlsa_heuristics.h"
#include "sim/evaluator.h"

namespace soma {

SomaSearchResult
RunBufferAllocatedSearch(const Graph &graph, const HardwareConfig &hw,
                         const LfaStageOptions &lfa_opts,
                         const DlsaStageOptions &dlsa_opts,
                         const BufferAllocatorOptions &opts, Rng &rng)
{
    SomaSearchResult best;
    best.cost = std::numeric_limits<double>::infinity();
    obs::Tracer *const tracer = lfa_opts.driver.trace;
    obs::SpanScope search_span(tracer, "alloc.search");

    const CoreArrayEvaluator core_eval(graph, hw);
    const Ops total_ops = graph.TotalOps();

    // Keep the result well-formed even if no valid scheme is ever found
    // (reports stay invalid; encodings stay consistent).
    best.lfa = MakeInitialLfa(graph, hw, lfa_opts.tiling_cap);
    best.parsed = ParseLfa(graph, best.lfa, core_eval);
    best.stage1_dlsa = MakeDoubleBufferDlsa(best.parsed);
    best.dlsa = best.stage1_dlsa;

    Bytes buffer_max = 0;
    int no_improve = 0;

    for (int iter = 0; iter < opts.max_iterations; ++iter) {
        // Cooperative stop between outer iterations; the stages below
        // additionally stop iteration-granularly via the same flag.
        if (DriverStopRequested(lfa_opts.driver)) break;
        Bytes stage_budget;
        if (iter == 0) {
            stage_budget = hw.gbuf_bytes;
        } else {
            stage_budget = buffer_max -
                           static_cast<Bytes>(std::llround(
                               static_cast<double>(iter) * opts.shrink_frac *
                               static_cast<double>(buffer_max)));
            if (stage_budget <= 0) break;
        }

        obs::SpanScope iter_span(tracer, "alloc.iteration");
        iter_span.Arg("iter", static_cast<std::int64_t>(iter));
        iter_span.Arg("budget_bytes",
                      static_cast<std::int64_t>(stage_budget));

        LfaStageResult s1 = RunLfaStage(graph, hw, core_eval, stage_budget,
                                        lfa_opts, rng);
        AccumulateSaStats(&best.lfa_stats, s1.stats);
        if (!s1.report.valid) {
            SOMA_INFO << "buffer allocator iter " << iter
                      << ": stage 1 found no valid scheme under budget "
                      << stage_budget;
            ++no_improve;
            if (no_improve >= opts.patience && iter > 0) break;
            continue;
        }
        if (iter == 0) {
            buffer_max = PeakBufferUsage(s1.parsed, s1.dlsa);
            if (buffer_max <= 0) buffer_max = hw.gbuf_bytes;
        }

        DlsaStageResult s2 = RunDlsaStage(graph, hw, s1.parsed, s1.dlsa,
                                          hw.gbuf_bytes, dlsa_opts, rng);
        AccumulateSaStats(&best.dlsa_stats, s2.stats);

        best.iteration_costs.push_back(s2.cost);
        ++best.outer_iterations;
        iter_span.Arg("cost", s2.cost);

        if (s2.cost < best.cost) {
            best.cost = s2.cost;
            best.lfa = s1.lfa;
            best.parsed = std::move(s1.parsed);
            best.stage1_dlsa = s1.dlsa;
            best.dlsa = s2.dlsa;
            best.report = s2.report;
            // Ours_1 is the same LFA with the double-buffer DLSA,
            // reported against the full hardware buffer.
            best.stage1_report = EvaluateSchedule(
                graph, hw, best.parsed, best.stage1_dlsa, hw.gbuf_bytes,
                total_ops);
            no_improve = 0;
        } else {
            ++no_improve;
            if (no_improve >= opts.patience) break;
        }
    }
    search_span.Arg("outer_iterations",
                    static_cast<std::int64_t>(best.outer_iterations));
    search_span.Arg("best_cost", best.cost);
    return best;
}

}  // namespace soma

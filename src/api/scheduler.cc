#include "api/scheduler.h"

#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "compiler/instruction_gen.h"
#include "compiler/ir.h"
#include "hw/hardware.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "sim/memory_validation.h"
#include "sim/trace.h"

namespace soma {

namespace {

using obs::MonotonicNow;
using obs::MonotonicTime;
using obs::SecondsSince;

/**
 * Post-search bookkeeping shared by every pipeline run: feed the
 * process-wide metrics registry (request/search counters, per-site prof
 * deltas) and, for traced requests, synthesize aggregate spans from the
 * hot-path prof deltas.
 */
void
RecordSearchObservations(const ScheduleRequest &request,
                         double search_seconds,
                         const std::vector<obs::ProfEntry> &before,
                         MonotonicTime t_search, MonotonicTime t_search_end)
{
    const std::vector<obs::ProfEntry> after = obs::ProfSnapshot();
    auto &reg = obs::MetricsRegistry::Global();
    reg.GetCounter("pipeline.requests").Add();
    reg.GetCounter("pipeline.search_nanos")
        .Add(static_cast<std::uint64_t>(search_seconds * 1e9));
    reg.GetHistogram("pipeline.search_seconds").Observe(search_seconds);

    obs::Tracer *const tracer = request.trace;
    // Per-phase time/invocation aggregates from the hot-path prof sites
    // (the hot path records aggregates, not per-call events; see
    // obs/prof.h). Deltas are attributed to this request; they are
    // approximate when pipelines run concurrently, since prof sites are
    // process-wide. Each active site feeds a prof.<name>.{calls,nanos}
    // counter pair and — for traced requests — one synthesized
    // aggregate span.
    for (const obs::ProfEntry &e : after) {
        std::uint64_t before_calls = 0, before_nanos = 0;
        for (const obs::ProfEntry &b : before) {
            if (b.name == e.name) {
                before_calls = b.calls;
                before_nanos = b.nanos;
                break;
            }
        }
        const std::uint64_t delta_calls = e.calls - before_calls;
        const std::uint64_t delta_nanos = e.nanos - before_nanos;
        if (delta_calls == 0 && delta_nanos == 0) continue;
        reg.GetCounter("prof." + e.name + ".calls").Add(delta_calls);
        reg.GetCounter("prof." + e.name + ".nanos").Add(delta_nanos);
        if (tracer) {
            std::vector<obs::SpanArg> args;
            args.push_back({"calls", Json::U64(delta_calls)});
            tracer->AddAggregate(e.name.c_str(), t_search_end,
                                 static_cast<std::int64_t>(delta_nanos),
                                 std::move(args));
        }
    }
    if (!tracer) return;
    std::vector<obs::SpanArg> args;
    args.push_back({"scheduler", Json::Str(request.scheduler)});
    tracer->AddComplete("pipeline.search", t_search, t_search_end,
                        std::move(args));
}

}  // namespace

Scheduler::Scheduler()
    : models_(ModelRegistry::WithBuiltins()),
      hardware_(HardwareRegistry::WithBuiltins()),
      schedulers_(SchedulerRegistry::WithBuiltins()),
      memory_models_(MemoryModelRegistry::WithBuiltins())
{
}

ScheduleResult
Scheduler::Schedule(const ScheduleRequest &original) const
{
    const auto t_start = MonotonicNow();
    // One deadline anchor for the whole request: the search loops and
    // the deadline_expired flag below compare against the same instant,
    // so a search that ran its full budget is never mislabeled expired.
    ScheduleRequest request = original;
    if (request.deadline_ms > 0 &&
        request.deadline_tp.time_since_epoch().count() == 0) {
        request.deadline_tp =
            t_start + std::chrono::milliseconds(request.deadline_ms);
    }
    ScheduleResult result = EchoRequest(request);

    // Observability is read-only: spans, prof aggregates and registry
    // metrics observe pipeline state but never steer it, so results are
    // byte-identical with and without a tracer (pinned by test). A
    // traced request additionally holds hot-path profiling enabled so
    // the synthesized eval.* aggregate spans below always carry data.
    obs::Tracer *const tracer = request.trace;
    std::optional<obs::ProfEnableScope> prof_hold;
    if (tracer) prof_hold.emplace();
    const std::vector<obs::ProfEntry> prof_before = obs::ProfSnapshot();

    auto progress = [&](const char *phase) {
        if (!request.on_progress) return;
        ProgressEvent event;
        event.phase = phase;
        event.elapsed_seconds = SecondsSince(t_start);
        request.on_progress(event);
    };
    auto fail = [&](std::string why) {
        result.ok = false;
        result.error = std::move(why);
        result.stats.total_seconds = SecondsSince(t_start);
        return std::move(result);
    };
    auto is_cancelled = [&] {
        return request.cancel &&
               request.cancel->load(std::memory_order_relaxed);
    };

    // ---- build: resolve workload, hardware point and strategy.
    progress("build");
    std::string err;
    std::shared_ptr<const Graph> graph = request.graph;
    if (!graph) {
        Graph built;
        if (!models_.Build(request.model, request.batch, &built, &err))
            return fail(err);
        graph = std::make_shared<const Graph>(std::move(built));
    }
    result.graph = graph;

    HardwareConfig preset;
    if (!hardware_.Make(request.hardware, &preset, &err)) return fail(err);
    // Every nonzero override goes through the validated scaling, so a
    // negative, NaN or infinite value fails the request instead of
    // silently running on the preset (or on infinite bandwidth).
    HardwareConfig hw = preset;
    if (request.gbuf_bytes != 0 || request.dram_gbps != 0.0) {
        const Bytes gbuf =
            request.gbuf_bytes != 0 ? request.gbuf_bytes : preset.gbuf_bytes;
        const double gbps =
            request.dram_gbps != 0.0 ? request.dram_gbps : preset.dram_gbps;
        if (!ScaledHardware(preset, gbuf, gbps, &hw, &err)) return fail(err);
    }
    if (!request.memory_model.empty()) {
        const MemoryModel *mm = memory_models_.Find(request.memory_model,
                                                    &err);
        if (!mm) return fail(err);
        hw.memory_model = mm;
    }

    const SchedulerFn *scheduler_fn =
        schedulers_.Find(request.scheduler, &err);
    if (!scheduler_fn) return fail(err);
    const SomaOptions opts = SomaOptionsForRequest(request);

    if (tracer) {
        std::vector<obs::SpanArg> args;
        args.push_back({"model", Json::Str(result.model)});
        args.push_back({"hardware", Json::Str(result.hardware)});
        tracer->AddComplete("pipeline.build", t_start, MonotonicNow(),
                            std::move(args));
    }

    if (is_cancelled()) return fail("cancelled");

    // ---- search: the expensive phase.
    progress("search");
    const auto t_search = MonotonicNow();
    SchedulerRunResult run = (*scheduler_fn)(*graph, hw, request, opts);
    const auto t_search_end = MonotonicNow();
    result.stats.search_seconds =
        std::chrono::duration<double>(t_search_end - t_search).count();
    RecordSearchObservations(request, result.stats.search_seconds,
                             prof_before, t_search, t_search_end);

    result.scheme = run.lfa.ToString(*graph);
    result.cost = run.cost;
    result.report = run.report;
    result.stage1_report = run.stage1_report;
    result.lfa = std::move(run.lfa);
    result.parsed = std::move(run.parsed);
    result.dlsa = std::move(run.dlsa);
    result.stage1_dlsa = std::move(run.stage1_dlsa);
    result.stats.iterations = run.stats.iterations;
    result.stats.evaluated = run.stats.evaluated;
    result.stats.accepted = run.stats.accepted;
    result.stats.improved = run.stats.improved;
    result.stats.outer_iterations = run.outer_iterations;

    // Deadline bookkeeping: if the request's cutoff has passed, the
    // search loops were truncated (they poll the same time point), so
    // the result is best-so-far, not full-budget.
    result.deadline_expired =
        request.deadline_ms > 0 && MonotonicNow() >= request.deadline_tp;

    if (is_cancelled()) return fail("cancelled");

    if (!result.report.valid) {
        if (result.deadline_expired)
            return fail("deadline expired (" +
                        std::to_string(request.deadline_ms) +
                        " ms) before a valid schedule was found");
        std::string why = "no valid schedule found";
        if (!result.report.why_invalid.empty())
            why += ": " + result.report.why_invalid;
        return fail(std::move(why));
    }
    result.ok = true;

    // ---- artifacts: lower / render only what was asked for.
    progress("artifacts");
    const auto t_artifacts = MonotonicNow();
    const ArtifactRequest &arts = request.artifacts;
    if (arts.ir || arts.instructions) {
        IrModule ir = GenerateIr(*graph, result.parsed, result.dlsa);
        if (arts.ir) result.ir_text = ir.ToText();
        if (arts.instructions) {
            Program prog = GenerateInstructions(ir);
            result.asm_text = prog.ToText();
            result.num_instructions =
                static_cast<int>(prog.instructions.size());
            result.num_loads = prog.NumLoads();
            result.num_stores = prog.NumStores();
            result.num_computes = prog.NumComputes();
        }
    }
    if (arts.traces) {
        std::ostringstream compute, dram, buffer;
        WriteComputeTraceCsv(compute, *graph, result.parsed,
                             result.report);
        WriteDramTraceCsv(dram, *graph, result.parsed, result.dlsa,
                          result.report);
        WriteBufferTraceCsv(buffer, result.parsed, result.dlsa);
        result.compute_csv = compute.str();
        result.dram_csv = dram.str();
        result.buffer_csv = buffer.str();
    }
    if (arts.execution_graph) {
        std::ostringstream os;
        PrintExecutionGraph(os, *graph, result.parsed, result.dlsa,
                            result.report, arts.execution_graph_rows);
        result.execution_graph = os.str();
        if (result.stage1_report.valid) {
            std::ostringstream os1;
            PrintExecutionGraph(os1, *graph, result.parsed,
                                result.stage1_dlsa, result.stage1_report,
                                arts.execution_graph_rows);
            result.stage1_execution_graph = os1.str();
        }
    }

    if (tracer)
        tracer->AddComplete("pipeline.artifacts", t_artifacts,
                            MonotonicNow());

    // ---- memory validation: re-time the final schedule under the
    // banked replay and publish the analytical-vs-banked gap. Purely
    // observational (metrics only, result bytes untouched), so it runs
    // after the result is fully assembled.
    if (request.validate_memory) {
        const auto t_validate = MonotonicNow();
        const MemoryValidationResult mv = ValidateMemoryTiming(
            *graph, hw, result.parsed, result.dlsa);
        auto &reg = obs::MetricsRegistry::Global();
        reg.GetCounter("eval.dram.validations").Add();
        if (mv.ok) {
            reg.GetGauge("memory.validation_gap_pct").Set(mv.gap_pct);
            reg.GetGauge("memory.analytical_latency")
                .Set(mv.analytical_latency);
            reg.GetGauge("memory.banked_latency").Set(mv.banked_latency);
            reg.GetCounter("eval.dram.transactions")
                .Add(mv.replay.transactions);
            reg.GetCounter("eval.dram.row_hits").Add(mv.replay.row_hits);
            reg.GetCounter("eval.dram.row_misses")
                .Add(mv.replay.row_misses);
            reg.GetCounter("eval.dram.row_conflicts")
                .Add(mv.replay.row_conflicts);
            reg.GetCounter("eval.dram.turnarounds")
                .Add(mv.replay.turnarounds);
        } else {
            reg.GetCounter("eval.dram.validation_errors").Add();
        }
        if (tracer) {
            std::vector<obs::SpanArg> args;
            args.push_back({"gap_pct", Json::Number(mv.gap_pct)});
            tracer->AddComplete("pipeline.validate_memory", t_validate,
                                MonotonicNow(), std::move(args));
        }
    }

    progress("done");
    result.stats.total_seconds = SecondsSince(t_start);
    return result;
}

}  // namespace soma

/**
 * @file
 * The oracle every reply is checked against, outside the timed region.
 *
 *  - A searched result is re-derived from its returned encodings with
 *    the public ParseLfa + EvaluateSchedule on a freshly resolved
 *    hardware point; the report must match bit for bit (core energy
 *    within 1e-3, its bitwise mismatches counted; see CheckSearched).
 *  - The result is lowered (GenerateIr) and replayed on the instruction
 *    VM (ExecuteIr), the repo's independently written simulator; the VM
 *    makespan must equal report.latency.
 *  - A cached or coalesced reply must carry exactly the bytes of its
 *    point's searched reply.
 *
 * The spans recorded here (on a traced record's own tracer) supply the
 * compiler-layer timings.
 */
#include <cmath>
#include <cstring>
#include <iostream>

#include "api/scheduler.h"
#include "bench.h"
#include "common/hash.h"
#include "compiler/ir.h"
#include "compiler/vm.h"
#include "corearray/core_array.h"
#include "sim/evaluator.h"

namespace perfbench {

namespace {

using soma::EvalReport;
using soma::EventTiming;

bool
SameTimings(const std::vector<EventTiming> &a,
            const std::vector<EventTiming> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

/** Bit equality: the JSON form keeps every double at 17 digits. */
bool
SameReport(const EvalReport &a, const EvalReport &b)
{
    return soma::ReportToJson(a).Dump() == soma::ReportToJson(b).Dump() &&
           SameTimings(a.tile_times, b.tile_times) &&
           SameTimings(a.tensor_times, b.tensor_times);
}

/** Relative core-energy gap tolerated (and counted), see below. */
constexpr double kEnergyTolerance = 1e-3;

/** Re-derive and lower a searched result; "" when it checks out. */
std::string
CheckSearched(soma::Scheduler &registries, const soma::ScheduleRequest &req,
              const soma::ScheduleResult &res, soma::obs::Tracer *tracer,
              int *energy_mismatches)
{
    if (!res.graph) return "searched result without a graph";
    const soma::Graph &graph = *res.graph;
    soma::HardwareConfig hw;
    std::string err;
    if (!registries.hardware().Make(req.hardware, &hw, &err)) return err;
    if (req.gbuf_bytes > 0) hw.gbuf_bytes = req.gbuf_bytes;
    if (req.dram_gbps > 0) hw.dram_gbps = req.dram_gbps;
    if (!req.memory_model.empty()) {
        hw.memory_model = registries.memory_models().Find(req.memory_model,
                                                          &err);
        if (!hw.memory_model) return err;
    }
    if (res.lfa.ToString(graph) != res.scheme)
        return "scheme text does not match the returned LFA";

    soma::ParsedSchedule parsed;
    {
        soma::obs::SpanScope span(tracer, "oracle.parse");
        soma::CoreArrayEvaluator core_eval(graph, hw);
        // The Cocco baseline keeps each layer group's weights resident.
        soma::ParseOptions popts;
        popts.lg_resident_weights = req.scheduler == "cocco";
        parsed = soma::ParseLfa(graph, res.lfa, core_eval, popts);
    }
    if (!parsed.valid) return "returned LFA does not parse";
    EvalReport report;
    {
        soma::obs::SpanScope span(tracer, "oracle.evaluate");
        report = soma::EvaluateSchedule(graph, hw, parsed, res.dlsa,
                                        hw.gbuf_bytes, graph.TotalOps());
    }
    // Known drift, counted rather than failed: the tile-cost memo keys
    // tiles by extent, not position, yet a border tile's input bytes
    // (and so its core energy) depend on position. Which tile fills a
    // memo entry first therefore nudges core_energy_j of a searched
    // result; timings and every other field stay exact.
    EvalReport expected = res.report;
    if (report.core_energy_j != expected.core_energy_j) {
        ++*energy_mismatches;
        if (std::abs(report.core_energy_j / expected.core_energy_j - 1.0) <
            kEnergyTolerance)
            expected.core_energy_j = report.core_energy_j;
    }
    if (!SameReport(report, expected))
        return "re-evaluated report differs from the returned one";

    soma::IrModule ir;
    {
        soma::obs::SpanScope span(tracer, "compiler.lower");
        ir = soma::GenerateIr(graph, parsed, res.dlsa);
    }
    soma::VmResult vm;
    {
        soma::obs::SpanScope span(tracer, "compiler.vm");
        vm = soma::ExecuteIr(ir, hw);
        span.Arg("instructions", static_cast<std::int64_t>(vm.events.size()));
    }
    if (!vm.ok) return "VM: " + vm.error;
    if (vm.makespan != res.report.latency)
        return "VM makespan differs from report.latency";
    return "";
}

/** Drop the bulky in-process payload once a record is checked. */
void
ReleasePayload(soma::ScheduleResult *res)
{
    res->graph.reset();
    res->lfa = soma::LfaEncoding();
    res->parsed = soma::ParsedSchedule();
    res->dlsa = soma::DlsaEncoding();
    res->stage1_dlsa = soma::DlsaEncoding();
    res->report.tile_times = {};
    res->report.tensor_times = {};
    res->stage1_report = EvalReport();
}

}  // namespace

std::uint64_t
ResultDigest(const soma::ScheduleResult &result)
{
    return soma::Fnv1a64(result.scheme + '\n' +
                         soma::ReportToJson(result.report).Dump());
}

void
CheckPass(const Workload &w, Pass *pass)
{
    soma::Scheduler registries;
    // Each point's searched reply is the reference for its cached ones.
    std::vector<const std::string *> reference(w.points.size(), nullptr);
    for (const Record &r : pass->records)
        if (r.served == Served::kSearched && r.result.ok &&
            !reference[r.point])
            reference[r.point] = &r.text;

    for (Record &r : pass->records) {
        std::string why;
        if (!r.result.ok) {
            why = "request failed: " + r.result.error;
        } else if (r.served == Served::kSearched) {
            why = CheckSearched(registries, w.points[r.point], r.result,
                                r.tracer.get(), &pass->energy_mismatches);
        }
        if (why.empty() && w.through_service &&
            (!reference[r.point] || r.text != *reference[r.point]))
            why = "cached bytes differ from the searched reply";
        if (!why.empty()) {
            ++pass->failed;
            std::cerr << "oracle: " << w.name << " point " << r.point
                      << " (" << r.result.model << "/"
                      << r.result.scheduler << "): " << why << "\n";
        }
    }
    for (Record &r : pass->records) {
        ReleasePayload(&r.result);
        r.text = std::string();
    }
}

}  // namespace perfbench

#include "api/request.h"

#include <cmath>

#include "common/hash.h"

namespace soma {

namespace {

bool
TypeError(std::string *err, const std::string &key, const char *want)
{
    if (err) *err = "field \"" + key + "\" must be " + want;
    return false;
}

bool
ExpectNumber(const Json &v, const std::string &key, std::string *err)
{
    return v.IsNumber() ? true : TypeError(err, key, "a number");
}

bool
ExpectString(const Json &v, const std::string &key, std::string *err)
{
    return v.IsString() ? true : TypeError(err, key, "a string");
}

bool
ExpectBool(const Json &v, const std::string &key, std::string *err)
{
    return v.IsBool() ? true : TypeError(err, key, "a boolean");
}

// Sanity bound for counts (batch, threads, rows): large enough for any
// real request, small enough to catch garbage numerics.
constexpr std::int64_t kMaxCount = 1000000;
// Every search chain owns an evaluation context sized by its parse
// (about 1-4 MB each on the bundled models), so the chain count is
// bounded by memory, far below kMaxCount.
constexpr std::int64_t kMaxChains = 256;

bool
RangeError(std::string *err, const std::string &key,
           const std::string &range)
{
    if (err) *err = "field \"" + key + "\" must be " + range;
    return false;
}

/** Integer in [@p lo, @p hi], range-checked before narrowing;
 *  fractions are rejected, never truncated. */
bool
CountFromJson(const Json &value, const std::string &key, std::int64_t lo,
              int *out, std::string *err, std::int64_t hi = kMaxCount)
{
    if (!ExpectNumber(value, key, err)) return false;
    const double d = value.AsDouble();
    const std::int64_t v = value.AsInt();
    if (d != std::floor(d) || v < lo || v > hi)
        return RangeError(err, key,
                          "an integer in [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + "]");
    *out = static_cast<int>(v);
    return true;
}

bool
FiniteFromJson(const Json &value, const std::string &key, double *out,
               std::string *err)
{
    if (!ExpectNumber(value, key, err)) return false;
    const double v = value.AsDouble();
    if (!std::isfinite(v) || v < 0)
        return RangeError(err, key, "a non-negative finite number");
    *out = v;
    return true;
}

bool
ArtifactsFromJson(const Json &json, ArtifactRequest *out, std::string *err)
{
    if (!json.IsObject())
        return TypeError(err, "artifacts", "an object");
    for (const auto &[key, value] : json.items()) {
        if (key == "ir") {
            if (!ExpectBool(value, key, err)) return false;
            out->ir = value.AsBool();
        } else if (key == "instructions") {
            if (!ExpectBool(value, key, err)) return false;
            out->instructions = value.AsBool();
        } else if (key == "traces") {
            if (!ExpectBool(value, key, err)) return false;
            out->traces = value.AsBool();
        } else if (key == "execution_graph") {
            if (!ExpectBool(value, key, err)) return false;
            out->execution_graph = value.AsBool();
        } else if (key == "execution_graph_rows") {
            if (!CountFromJson(value, key, 0, &out->execution_graph_rows,
                               err))
                return false;
        } else {
            if (err) *err = "unknown artifacts field \"" + key + "\"";
            return false;
        }
    }
    return true;
}

}  // namespace

bool
SeedFromJson(const Json &value, const std::string &key, std::uint64_t *out,
             std::string *err)
{
    if (!ExpectNumber(value, key, err)) return false;
    const double d = value.AsDouble();
    if (!value.IsU64() &&
        (!(d >= 0) || d != std::floor(d) || d >= 18446744073709551616.0))
        return RangeError(err, key, "an integer in [0, 2^64)");
    *out = value.AsU64();
    return true;
}

Json
ScheduleRequest::ToJson() const
{
    Json json = Json::Object();
    if (graph) {
        // Inline graphs cannot cross the process boundary; record the
        // name so dumps stay informative. FromJson rejects the key.
        json.Set("inline_model", Json::Str(graph->name()));
    } else {
        json.Set("model", Json::Str(model));
    }
    json.Set("batch", Json::Int(batch));
    json.Set("hardware", Json::Str(hardware));
    // Any nonzero override is written, valid or not, so an invalid one
    // never shares the preset's fingerprint (and its cached result).
    if (gbuf_bytes != 0) json.Set("gbuf_bytes", Json::Int(gbuf_bytes));
    if (dram_gbps != 0.0) json.Set("dram_gbps", Json::Number(dram_gbps));
    // Default ("" = analytical) omitted: pre-seam fingerprints and
    // cached results stay valid.
    if (!memory_model.empty())
        json.Set("memory_model", Json::Str(memory_model));
    json.Set("scheduler", Json::Str(scheduler));
    json.Set("profile", Json::Str(ToString(profile)));
    json.Set("seed", Json::U64(seed));
    json.Set("cost_n", Json::Number(cost_n));
    json.Set("cost_m", Json::Number(cost_m));
    if (chains > 0) json.Set("chains", Json::Int(chains));
    if (threads > 0) json.Set("threads", Json::Int(threads));
    if (deadline_ms > 0) json.Set("deadline_ms", Json::Int(deadline_ms));
    Json arts = Json::Object();
    arts.Set("ir", Json::Bool(artifacts.ir));
    arts.Set("instructions", Json::Bool(artifacts.instructions));
    arts.Set("traces", Json::Bool(artifacts.traces));
    arts.Set("execution_graph", Json::Bool(artifacts.execution_graph));
    arts.Set("execution_graph_rows",
             Json::Int(artifacts.execution_graph_rows));
    json.Set("artifacts", std::move(arts));
    return json;
}

bool
ScheduleRequest::FromJson(const Json &json, ScheduleRequest *out,
                          std::string *err)
{
    if (!json.IsObject()) {
        if (err) *err = "request must be a JSON object";
        return false;
    }
    *out = ScheduleRequest();
    for (const auto &[key, value] : json.items()) {
        if (key == "model") {
            if (!ExpectString(value, key, err)) return false;
            out->model = value.AsString();
        } else if (key == "inline_model") {
            if (err)
                *err = "\"inline_model\" marks an in-process graph and "
                       "cannot be scheduled from JSON; use \"model\" "
                       "with a registered name";
            return false;
        } else if (key == "batch") {
            if (!CountFromJson(value, key, 1, &out->batch, err))
                return false;
        } else if (key == "hardware") {
            if (!ExpectString(value, key, err)) return false;
            out->hardware = value.AsString();
        } else if (key == "gbuf_bytes") {
            // 0 keeps the preset, so a fraction is rejected, never
            // truncated (0.5 would silently run on the preset).
            if (!ExpectNumber(value, key, err)) return false;
            const double d = value.AsDouble();
            out->gbuf_bytes = value.AsInt();
            if (d != std::floor(d) || out->gbuf_bytes < 0)
                return RangeError(err, key, "a non-negative integer");
        } else if (key == "dram_gbps") {
            if (!FiniteFromJson(value, key, &out->dram_gbps, err))
                return false;
        } else if (key == "memory_model") {
            if (!ExpectString(value, key, err)) return false;
            out->memory_model = value.AsString();
        } else if (key == "scheduler") {
            if (!ExpectString(value, key, err)) return false;
            out->scheduler = value.AsString();
        } else if (key == "profile") {
            if (!ExpectString(value, key, err)) return false;
            if (!ParseSearchProfile(value.AsString(), &out->profile)) {
                if (err)
                    *err = "unknown profile \"" + value.AsString() +
                           "\" (expected quick, default or full)";
                return false;
            }
        } else if (key == "seed") {
            if (!SeedFromJson(value, key, &out->seed, err)) return false;
        } else if (key == "cost_n") {
            if (!FiniteFromJson(value, key, &out->cost_n, err))
                return false;
        } else if (key == "cost_m") {
            if (!FiniteFromJson(value, key, &out->cost_m, err))
                return false;
        } else if (key == "chains") {
            if (!CountFromJson(value, key, 0, &out->chains, err,
                               kMaxChains))
                return false;
        } else if (key == "threads") {
            if (!CountFromJson(value, key, 0, &out->threads, err))
                return false;
        } else if (key == "deadline_ms") {
            if (!ExpectNumber(value, key, err)) return false;
            const double d = value.AsDouble();
            const std::int64_t v = value.AsInt();
            if (d != std::floor(d) || v < 0 || v > 86400000)  // a day
                return RangeError(err, key, "an integer in [0, 86400000]");
            out->deadline_ms = static_cast<int>(v);
        } else if (key == "artifacts") {
            if (!ArtifactsFromJson(value, &out->artifacts, err))
                return false;
        } else {
            if (err) *err = "unknown request field \"" + key + "\"";
            return false;
        }
    }
    return true;
}

Json
ScheduleRequest::CanonicalJson() const
{
    Json json = ToJson();
    json.Erase("threads");      // never changes results
    json.Erase("deadline_ms");  // QoS truncation, not identity
    return json;
}

std::uint64_t
ScheduleRequest::Fingerprint() const
{
    return Fnv1a64(CanonicalJson().CanonicalDump());
}

ScheduleResult
EchoRequest(const ScheduleRequest &request)
{
    ScheduleResult result;
    const bool inline_only = request.graph && request.model.empty();
    result.model = inline_only ? request.graph->name() : request.model;
    result.batch = inline_only ? request.graph->batch() : request.batch;
    result.hardware = request.hardware;
    result.memory_model = request.memory_model;
    result.scheduler = request.scheduler;
    result.profile = request.profile;
    result.seed = request.seed;
    return result;
}

Json
ReportToJson(const EvalReport &report)
{
    Json json = Json::Object();
    json.Set("valid", Json::Bool(report.valid));
    if (!report.why_invalid.empty())
        json.Set("why_invalid", Json::Str(report.why_invalid));
    json.Set("latency", Json::Number(report.latency));
    json.Set("core_energy_j", Json::Number(report.core_energy_j));
    json.Set("dram_energy_j", Json::Number(report.dram_energy_j));
    json.Set("compute_busy", Json::Number(report.compute_busy));
    json.Set("dram_busy", Json::Number(report.dram_busy));
    json.Set("compute_util", Json::Number(report.compute_util));
    json.Set("dram_util", Json::Number(report.dram_util));
    json.Set("theory_max_util", Json::Number(report.theory_max_util));
    json.Set("peak_buffer", Json::Int(report.peak_buffer));
    json.Set("avg_buffer", Json::Number(report.avg_buffer));
    json.Set("dram_bytes", Json::Int(report.dram_bytes));
    json.Set("num_tiles", Json::Int(report.num_tiles));
    json.Set("num_tensors", Json::Int(report.num_tensors));
    json.Set("num_flgs", Json::Int(report.num_flgs));
    json.Set("num_lgs", Json::Int(report.num_lgs));
    return json;
}

bool
ReportFromJson(const Json &json, EvalReport *out, std::string *err)
{
    if (!json.IsObject()) {
        if (err) *err = "report must be a JSON object";
        return false;
    }
    *out = EvalReport();
    auto num = [&json](const char *key, double dflt) {
        const Json *v = json.Find(key);
        return v ? v->AsDouble(dflt) : dflt;
    };
    auto integer = [&json](const char *key, std::int64_t dflt) {
        const Json *v = json.Find(key);
        return v ? v->AsInt(dflt) : dflt;
    };
    if (const Json *v = json.Find("valid")) out->valid = v->AsBool();
    if (const Json *v = json.Find("why_invalid"))
        out->why_invalid = v->AsString();
    // A null latency is the JSON spelling of +inf (invalid schemes).
    const Json *lat = json.Find("latency");
    if (lat && lat->IsNumber()) out->latency = lat->AsDouble();
    out->core_energy_j = num("core_energy_j", 0.0);
    out->dram_energy_j = num("dram_energy_j", 0.0);
    out->compute_busy = num("compute_busy", 0.0);
    out->dram_busy = num("dram_busy", 0.0);
    out->compute_util = num("compute_util", 0.0);
    out->dram_util = num("dram_util", 0.0);
    out->theory_max_util = num("theory_max_util", 0.0);
    out->peak_buffer = integer("peak_buffer", 0);
    out->avg_buffer = num("avg_buffer", 0.0);
    out->dram_bytes = integer("dram_bytes", 0);
    out->num_tiles = static_cast<int>(integer("num_tiles", 0));
    out->num_tensors = static_cast<int>(integer("num_tensors", 0));
    out->num_flgs = static_cast<int>(integer("num_flgs", 0));
    out->num_lgs = static_cast<int>(integer("num_lgs", 0));
    return true;
}

Json
ScheduleResult::ToJson() const
{
    Json json = Json::Object();
    json.Set("ok", Json::Bool(ok));
    if (!error.empty()) json.Set("error", Json::Str(error));
    if (deadline_expired)
        json.Set("deadline_expired", Json::Bool(true));
    json.Set("model", Json::Str(model));
    json.Set("batch", Json::Int(batch));
    json.Set("hardware", Json::Str(hardware));
    if (!memory_model.empty())
        json.Set("memory_model", Json::Str(memory_model));
    json.Set("scheduler", Json::Str(scheduler));
    json.Set("profile", Json::Str(ToString(profile)));
    json.Set("seed", Json::U64(seed));
    json.Set("scheme", Json::Str(scheme));
    json.Set("cost", Json::Number(cost));
    json.Set("report", ReportToJson(report));
    if (stage1_report.valid)
        json.Set("stage1_report", ReportToJson(stage1_report));

    Json st = Json::Object();
    st.Set("iterations", Json::Int(stats.iterations));
    st.Set("evaluated", Json::Int(stats.evaluated));
    st.Set("accepted", Json::Int(stats.accepted));
    st.Set("improved", Json::Int(stats.improved));
    st.Set("outer_iterations", Json::Int(stats.outer_iterations));
    st.Set("search_seconds", Json::Number(stats.search_seconds));
    st.Set("total_seconds", Json::Number(stats.total_seconds));
    json.Set("stats", std::move(st));

    Json arts = Json::Object();
    if (!ir_text.empty()) arts.Set("ir", Json::Str(ir_text));
    if (!asm_text.empty()) arts.Set("asm", Json::Str(asm_text));
    if (!compute_csv.empty())
        arts.Set("compute_csv", Json::Str(compute_csv));
    if (!dram_csv.empty()) arts.Set("dram_csv", Json::Str(dram_csv));
    if (!buffer_csv.empty()) arts.Set("buffer_csv", Json::Str(buffer_csv));
    if (!execution_graph.empty())
        arts.Set("execution_graph", Json::Str(execution_graph));
    if (!stage1_execution_graph.empty())
        arts.Set("stage1_execution_graph",
                 Json::Str(stage1_execution_graph));
    if (!arts.items().empty()) json.Set("artifacts", std::move(arts));

    if (num_instructions > 0) {
        Json instr = Json::Object();
        instr.Set("total", Json::Int(num_instructions));
        instr.Set("loads", Json::Int(num_loads));
        instr.Set("stores", Json::Int(num_stores));
        instr.Set("computes", Json::Int(num_computes));
        json.Set("instructions", std::move(instr));
    }
    return json;
}

bool
ScheduleResult::FromJson(const Json &json, ScheduleResult *out,
                         std::string *err)
{
    if (!json.IsObject()) {
        if (err) *err = "result must be a JSON object";
        return false;
    }
    *out = ScheduleResult();
    auto str = [&json](const char *key) -> std::string {
        const Json *v = json.Find(key);
        return v ? v->AsString() : std::string();
    };
    if (const Json *v = json.Find("ok")) out->ok = v->AsBool();
    out->error = str("error");
    if (const Json *v = json.Find("deadline_expired"))
        out->deadline_expired = v->AsBool();
    out->model = str("model");
    if (const Json *v = json.Find("batch"))
        out->batch = static_cast<int>(v->AsInt(1));
    out->hardware = str("hardware");
    out->memory_model = str("memory_model");
    out->scheduler = str("scheduler");
    if (const Json *v = json.Find("profile")) {
        if (!ParseSearchProfile(v->AsString(), &out->profile)) {
            if (err) *err = "unknown profile \"" + v->AsString() + "\"";
            return false;
        }
    }
    if (const Json *v = json.Find("seed")) out->seed = v->AsU64(1);
    out->scheme = str("scheme");
    if (const Json *v = json.Find("cost")) out->cost = v->AsDouble();
    if (const Json *v = json.Find("report")) {
        if (!ReportFromJson(*v, &out->report, err)) return false;
    }
    if (const Json *v = json.Find("stage1_report")) {
        if (!ReportFromJson(*v, &out->stage1_report, err)) return false;
    }
    if (const Json *v = json.Find("stats"); v && v->IsObject()) {
        out->stats.iterations = v->Find("iterations")
                                    ? v->Find("iterations")->AsInt()
                                    : 0;
        out->stats.evaluated =
            v->Find("evaluated") ? v->Find("evaluated")->AsInt() : 0;
        out->stats.accepted =
            v->Find("accepted") ? v->Find("accepted")->AsInt() : 0;
        out->stats.improved =
            v->Find("improved") ? v->Find("improved")->AsInt() : 0;
        out->stats.outer_iterations =
            v->Find("outer_iterations")
                ? static_cast<int>(v->Find("outer_iterations")->AsInt())
                : 0;
        out->stats.search_seconds =
            v->Find("search_seconds")
                ? v->Find("search_seconds")->AsDouble()
                : 0.0;
        out->stats.total_seconds =
            v->Find("total_seconds") ? v->Find("total_seconds")->AsDouble()
                                     : 0.0;
    }
    if (const Json *v = json.Find("artifacts"); v && v->IsObject()) {
        auto art = [v](const char *key) -> std::string {
            const Json *a = v->Find(key);
            return a ? a->AsString() : std::string();
        };
        out->ir_text = art("ir");
        out->asm_text = art("asm");
        out->compute_csv = art("compute_csv");
        out->dram_csv = art("dram_csv");
        out->buffer_csv = art("buffer_csv");
        out->execution_graph = art("execution_graph");
        out->stage1_execution_graph = art("stage1_execution_graph");
    }
    if (const Json *v = json.Find("instructions"); v && v->IsObject()) {
        auto count = [v](const char *key) {
            const Json *c = v->Find(key);
            return c ? static_cast<int>(c->AsInt()) : 0;
        };
        out->num_instructions = count("total");
        out->num_loads = count("loads");
        out->num_stores = count("stores");
        out->num_computes = count("computes");
    }
    return true;
}

}  // namespace soma

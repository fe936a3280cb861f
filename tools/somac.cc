/**
 * @file
 * somac — the SoMa scheduler as a command-line service. Wraps the
 * soma::Scheduler facade: a request JSON (or flags) in, a result JSON
 * (plus optional artifact files) out, with the same bit-for-bit
 * results as the in-process API for the same (seed, chains).
 *
 *   somac run <request.json> [overrides] [-o result.json] [--outdir D]
 *   somac run --model resnet50 --profile quick --seed 7 [-o out.json]
 *   somac sweep <spec.json> [--csv F] [--stats F] [--cache-dir D]
 *   somac fingerprint <request.json> [--canonical]
 *   somac list models|hardware|schedulers
 *   somac validate <result.json>
 *   somac help
 *
 * `sweep` expands a grid spec (models x hardware overrides x profiles
 * x seeds) into requests and runs them through the SchedulerService —
 * shared result/graph caches, in-flight coalescing — emitting a
 * deterministic CSV results table: re-running a sweep against a warm
 * `--cache-dir` produces the identical table with zero searches.
 *
 * `validate` is the tiny schema validator CI uses on the smoke run's
 * output; it checks presence and types of the stable result fields.
 */
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/scheduler.h"
#include "common/hash.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "search/driver.h"
#include "service/service.h"

namespace {

using namespace soma;

int
Usage(std::ostream &os, int code)
{
    os << "somac — SoMa DRAM-communication scheduler CLI\n"
          "\n"
          "usage:\n"
          "  somac run [request.json] [overrides] [-o result.json]\n"
          "            [--outdir DIR] [--trace FILE] [--stats FILE]\n"
          "            [--quiet]\n"
          "  somac sweep spec.json [--csv FILE] [--json FILE]\n"
          "            [--stats FILE] [--trace FILE] [--cache-dir DIR]\n"
          "            [--cache-capacity N] [--jobs N] [--shard I/N]\n"
          "            [--repeat N] [--memory-model M] [--quiet]\n"
          "  somac fingerprint request.json [--canonical]\n"
          "            [--stats FILE]\n"
          "  somac list models|hardware|schedulers|memory-models\n"
          "  somac validate result.json\n"
          "  somac help | somac <command> --help\n"
          "\n"
          "run overrides (flag form of the request JSON fields):\n"
          "  --model NAME        workload (see `somac list models`)\n"
          "  --batch N           batch size (default 1)\n"
          "  --hw NAME           hardware preset (edge|cloud; see\n"
          "                      `somac list hardware`)\n"
          "  --gbuf-mb MB        override GBUF size\n"
          "  --dram-gbps GBPS    override DRAM bandwidth\n"
          "  --memory-model M    DRAM timing backend (analytical|banked;\n"
          "                      see `somac list memory-models`)\n"
          "  --validate-memory   re-time the result under the banked\n"
          "                      replay and report the analytical-vs-\n"
          "                      banked latency gap (implied by\n"
          "                      --memory-model banked; metrics\n"
          "                      memory.validation_gap_pct + eval.dram.*\n"
          "                      land in --stats)\n"
          "  --scheduler NAME    soma|cocco|lfa-only (default soma)\n"
          "  --profile P         quick|default|full (default quick)\n"
          "  --seed N            search seed (default 1)\n"
          "  --cost-n X --cost-m Y   objective Energy^n x Delay^m\n"
          "  --chains K          SA chains <= 256 (deterministic knob)\n"
          "  --threads T         driver threads (wall-clock only)\n"
          "  --deadline-ms N     wall-clock budget (0 = none)\n"
          "  --ir --asm --traces --exec-graph   request artifacts\n"
          "  --exec-graph-rows N  execution-graph rows (default 40)\n"
          "\n"
          "-o/--out writes the result JSON (default: stdout);\n"
          "--outdir additionally writes artifacts as files\n"
          "(<model>.ir, <model>.asm, <model>_{compute,dram,buffer}.csv,\n"
          "<model>_execgraph.txt).\n"
          "\n"
          "--trace FILE writes a Chrome trace-event JSON of the run\n"
          "(load in Perfetto / chrome://tracing): spans for every\n"
          "pipeline phase, search stage, SA window and the synthesized\n"
          "hot-path aggregates. Observational only — result bytes are\n"
          "identical with and without --trace.\n"
          "--stats FILE writes the canonical metrics-registry dump\n"
          "(flat dotted keys; one schema across run/sweep/fingerprint).\n"
          "\n"
          "sweep spec.json: {\"base\": {request fields...},\n"
          "  \"models\": [...], \"batches\": [...], \"hardware\": [...],\n"
          "  \"gbuf_mb\": [...], \"dram_gbps\": [...],\n"
          "  \"schedulers\": [...], \"profiles\": [...], \"seeds\": [...]}\n"
          "Missing axes inherit the base request's value. The CSV table\n"
          "is deterministic: same spec + warm cache => identical bytes.\n"
          "--shard I/N keeps every N-th grid point starting at I\n"
          "(0 <= I < N) so N processes/machines can split one sweep;\n"
          "point every shard's --cache-dir at one shared directory and\n"
          "the shards' row sets partition the unsharded sweep's table\n"
          "(equal rows, interleaved order).\n"
          "--repeat N runs the grid N times against one service — a\n"
          "warm-traffic self-check: somac exits non-zero unless every\n"
          "pass reproduces the first pass's table byte-for-byte, and\n"
          "--stats then shows the cumulative cache counters (graph-cache\n"
          "hits come from result-cache-cold requests that share a\n"
          "workload, e.g. the seeds axis).\n"
          "\n"
          "fingerprint prints the request's canonical 64-bit identity\n"
          "(the service-layer cache key) as 16 hex digits;\n"
          "--canonical additionally prints the canonical request JSON.\n";
    return code;
}

bool
ParseIntArg(const std::string &flag, const std::string &text, int *out)
{
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(text.c_str(), &end, 10);
    if (errno != 0 || !end || *end != '\0' || end == text.c_str() ||
        v < INT_MIN || v > INT_MAX) {
        std::cerr << flag << ": \"" << text << "\" is not an integer\n";
        return false;
    }
    *out = static_cast<int>(v);
    return true;
}

bool
ParseDoubleArg(const std::string &flag, const std::string &text,
               double *out)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || !end || *end != '\0' || end == text.c_str()) {
        std::cerr << flag << ": \"" << text << "\" is not a number\n";
        return false;
    }
    *out = v;
    return true;
}

/** @p mb MiB as a byte count. False for a negative, non-finite or
 *  overflowing size, which the cast to Bytes cannot express, and for a
 *  nonzero size below one byte, which would truncate to 0 and so run
 *  on the preset. */
bool
MbToBytes(double mb, Bytes *out)
{
    const double bytes = mb * 1024 * 1024;
    if (!(bytes >= 0) || bytes >= 9223372036854775808.0) return false;
    if (bytes > 0 && bytes < 1) return false;
    *out = static_cast<Bytes>(bytes);
    return true;
}

bool
ReadFile(const std::string &path, std::string *out, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *err = "cannot open " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

bool
WriteFile(const std::string &path, const std::string &content,
          std::string *err)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        *err = "cannot write " + path;
        return false;
    }
    out << content;
    return static_cast<bool>(out);
}

int
CmdList(const std::vector<std::string> &args)
{
    Scheduler scheduler;
    std::string what = args.empty() ? "all" : args[0];
    auto print = [](const char *title,
                    const std::vector<std::string> &names) {
        std::cout << title << ":\n";
        for (const std::string &n : names) std::cout << "  " << n << "\n";
    };
    if (what == "models" || what == "all")
        print("models", scheduler.models().Names());
    if (what == "hardware" || what == "all")
        print("hardware", scheduler.hardware().Names());
    if (what == "schedulers" || what == "all")
        print("schedulers", scheduler.schedulers().Names());
    if (what == "memory-models" || what == "all") {
        std::cout << "memory-models:\n";
        const MemoryModelRegistry &models = scheduler.memory_models();
        for (const std::string &n : models.Names())
            std::cout << "  " << n << " - "
                      << models.Find(n, nullptr)->description() << "\n";
    }
    if (what != "models" && what != "hardware" && what != "schedulers" &&
        what != "memory-models" && what != "all") {
        std::cerr << "unknown list target \"" << what
                  << "\" (models|hardware|schedulers|memory-models)\n";
        return 2;
    }
    return 0;
}

/** Does this `somac run` flag consume the following argument? */
bool
FlagTakesValue(const std::string &flag)
{
    static const char *kValueFlags[] = {
        "--model", "--batch", "--hw", "--hardware", "--gbuf-mb",
        "--dram-gbps", "--memory-model", "--scheduler", "--profile",
        "--seed", "--cost-n", "--cost-m", "--chains", "--threads",
        "--deadline-ms", "--exec-graph-rows", "-o", "--out", "--outdir",
        "--trace", "--stats"};
    for (const char *f : kValueFlags)
        if (flag == f) return true;
    return false;
}

/** The request JSON field a `somac run` flag sets, or null. These flags
 *  are laid over the request JSON as JSON literals (which keeps a u64
 *  seed exact), so ScheduleRequest::FromJson applies its one set of
 *  type and range checks to them. */
const char *
RequestFieldOf(const std::string &flag)
{
    static const char *kFields[][2] = {
        {"--batch", "batch"},       {"--seed", "seed"},
        {"--cost-n", "cost_n"},     {"--cost-m", "cost_m"},
        {"--chains", "chains"},     {"--threads", "threads"},
        {"--deadline-ms", "deadline_ms"},
        {"--exec-graph-rows", "execution_graph_rows"}};
    for (const auto &f : kFields)
        if (flag == f[0]) return f[1];
    return nullptr;
}

bool
IsBooleanFlag(const std::string &flag)
{
    static const char *kBoolFlags[] = {"--ir", "--asm", "--traces",
                                       "--exec-graph", "--quiet",
                                       "--validate-memory"};
    for (const char *f : kBoolFlags)
        if (flag == f) return true;
    return false;
}

int
CmdRun(const std::vector<std::string> &args)
{
    std::string out_path, outdir, trace_path, stats_path;
    bool quiet = false;
    bool have_request = false;

    // Pass 1: load the positional request JSON (if any) and lay the
    // request-field flags over it wherever they appear, then parse the
    // result once.
    Json request_json = Json::Object();
    Json field_flags = Json::Object();
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (!arg.empty() && arg[0] == '-') {
            // Reject unknown flags here, before their values can be
            // mistaken for the request-JSON path.
            if (const char *field = RequestFieldOf(arg)) {
                if (i + 1 >= args.size()) {
                    std::cerr << arg << " needs a value\n";
                    return 2;
                }
                Json value;
                std::string err;
                if (!Json::Parse(args[++i], &value, &err)) {
                    std::cerr << arg << ": \"" << args[i]
                              << "\" is not a number\n";
                    return 2;
                }
                field_flags.Set(field, std::move(value));
            } else if (FlagTakesValue(arg)) {
                ++i;
            } else if (!IsBooleanFlag(arg)) {
                std::cerr << "unknown flag " << arg << "\n";
                return 2;
            }
            continue;
        }
        if (have_request) {
            std::cerr << "more than one request JSON given (\"" << arg
                      << "\")\n";
            return 2;
        }
        std::string text, err;
        if (!ReadFile(arg, &text, &err)) {
            std::cerr << err << "\n";
            return 2;
        }
        if (!Json::Parse(text, &request_json, &err)) {
            std::cerr << arg << ": " << err << "\n";
            return 2;
        }
        have_request = true;
    }
    for (const auto &[field, value] : field_flags.items()) {
        if (field == "execution_graph_rows") {
            const Json *found = request_json.Find("artifacts");
            Json artifacts = found ? *found : Json::Object();
            artifacts.Set(field, value);
            request_json.Set("artifacts", std::move(artifacts));
        } else {
            request_json.Set(field, value);
        }
    }
    ScheduleRequest request;
    {
        std::string err;
        if (!ScheduleRequest::FromJson(request_json, &request, &err)) {
            std::cerr << err << "\n";
            return 2;
        }
    }

    // Pass 2: apply the remaining flag overrides.
    auto need_value = [&args](std::size_t i, const std::string &flag)
        -> const std::string * {
        if (i + 1 >= args.size()) {
            std::cerr << flag << " needs a value\n";
            return nullptr;
        }
        return &args[i + 1];
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const std::string *v = nullptr;
        if (arg.empty() || arg[0] != '-') {
            continue;  // the request JSON, consumed by pass 1
        } else if (RequestFieldOf(arg)) {
            ++i;  // laid over the request JSON by pass 1
        } else if (arg == "--model") {
            if (!(v = need_value(i, arg))) return 2;
            request.model = *v, ++i;
        } else if (arg == "--hw" || arg == "--hardware") {
            if (!(v = need_value(i, arg))) return 2;
            request.hardware = *v, ++i;
        } else if (arg == "--gbuf-mb") {
            if (!(v = need_value(i, arg))) return 2;
            double mb = 0;
            if (!ParseDoubleArg(arg, *v, &mb)) return 2;
            if (!MbToBytes(mb, &request.gbuf_bytes)) {
                std::cerr << arg << ": \"" << *v
                          << "\" is not 0 or a size in [1, 2^63) bytes\n";
                return 2;
            }
            ++i;
        } else if (arg == "--dram-gbps") {
            if (!(v = need_value(i, arg))) return 2;
            if (!ParseDoubleArg(arg, *v, &request.dram_gbps)) return 2;
            ++i;
        } else if (arg == "--memory-model") {
            if (!(v = need_value(i, arg))) return 2;
            request.memory_model = *v, ++i;
        } else if (arg == "--validate-memory") {
            request.validate_memory = true;
        } else if (arg == "--scheduler") {
            if (!(v = need_value(i, arg))) return 2;
            request.scheduler = *v, ++i;
        } else if (arg == "--profile") {
            if (!(v = need_value(i, arg))) return 2;
            if (!ParseSearchProfile(*v, &request.profile)) {
                std::cerr << "unknown profile \"" << *v
                          << "\" (quick|default|full)\n";
                return 2;
            }
            ++i;
        } else if (arg == "--ir") {
            request.artifacts.ir = true;
        } else if (arg == "--asm") {
            request.artifacts.instructions = true;
        } else if (arg == "--traces") {
            request.artifacts.traces = true;
        } else if (arg == "--exec-graph") {
            request.artifacts.execution_graph = true;
        } else if (arg == "-o" || arg == "--out") {
            if (!(v = need_value(i, arg))) return 2;
            out_path = *v, ++i;
        } else if (arg == "--outdir") {
            if (!(v = need_value(i, arg))) return 2;
            outdir = *v, ++i;
        } else if (arg == "--trace") {
            if (!(v = need_value(i, arg))) return 2;
            trace_path = *v, ++i;
        } else if (arg == "--stats") {
            if (!(v = need_value(i, arg))) return 2;
            stats_path = *v, ++i;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::cerr << "unknown flag " << arg << "\n";
            return 2;
        }
    }
    if (!have_request && request.model.empty()) {
        std::cerr << "nothing to schedule: pass a request JSON or "
                     "--model (see somac help)\n";
        return 2;
    }
    // Searching under the banked backend without measuring the gap it
    // was built to expose would be pointless — imply validation.
    if (request.memory_model == "banked") request.validate_memory = true;

    Scheduler scheduler;
    if (!quiet) {
        request.on_progress = [](const ProgressEvent &event) {
            std::cerr << "[somac] " << event.phase << " +"
                      << event.elapsed_seconds << "s\n";
        };
    }
    // Observability wiring: a --trace run records spans onto a
    // request-scoped tracer; a --stats run holds hot-path profiling
    // enabled so the registry dump carries the per-phase aggregates.
    // Neither changes result bytes (pinned by test and CI).
    obs::Tracer tracer;
    if (!trace_path.empty()) request.trace = &tracer;
    std::optional<obs::ProfEnableScope> prof_hold;
    if (!stats_path.empty()) prof_hold.emplace();
    ScheduleResult result = scheduler.Schedule(request);

    if (request.validate_memory && result.ok && !quiet) {
        // The pipeline published the gap to the metrics registry (the
        // same numbers --stats dumps); surface it next to the progress
        // lines.
        auto &reg = obs::MetricsRegistry::Global();
        std::cerr << "[somac] memory validation: analytical "
                  << reg.GetGauge("memory.analytical_latency").value()
                  << "s vs banked "
                  << reg.GetGauge("memory.banked_latency").value()
                  << "s, gap "
                  << reg.GetGauge("memory.validation_gap_pct").value()
                  << "%\n";
    }

    std::string err;
    const std::string result_text = result.ToJson().Dump(2) + "\n";
    if (out_path.empty()) {
        std::cout << result_text;
    } else if (!WriteFile(out_path, result_text, &err)) {
        std::cerr << err << "\n";
        return 2;
    }
    if (!trace_path.empty()) {
        if (!WriteFile(trace_path, tracer.ToJson().Dump(2) + "\n", &err)) {
            std::cerr << err << "\n";
            return 2;
        }
        if (!quiet)
            std::cerr << "[somac] wrote " << tracer.NumEvents()
                      << " trace events to " << trace_path << "\n";
    }
    if (!stats_path.empty()) {
        const std::string dump =
            obs::MetricsRegistry::Global().ToJson().CanonicalDump() + "\n";
        if (!WriteFile(stats_path, dump, &err)) {
            std::cerr << err << "\n";
            return 2;
        }
    }

    if (!outdir.empty() && result.ok) {
        const std::string base = outdir + "/" + result.model;
        struct File {
            const std::string &content;
            std::string path;
        };
        const File files[] = {
            {result.ir_text, base + ".ir"},
            {result.asm_text, base + ".asm"},
            {result.compute_csv, base + "_compute.csv"},
            {result.dram_csv, base + "_dram.csv"},
            {result.buffer_csv, base + "_buffer.csv"},
            {result.execution_graph, base + "_execgraph.txt"},
        };
        for (const File &f : files) {
            if (f.content.empty()) continue;
            if (!WriteFile(f.path, f.content, &err)) {
                std::cerr << err << "\n";
                return 2;
            }
            if (!quiet) std::cerr << "[somac] wrote " << f.path << "\n";
        }
    }

    if (!result.ok) {
        std::cerr << "schedule failed: " << result.error << "\n";
        return 1;
    }
    return 0;
}

bool
LoadRequest(const std::string &path, ScheduleRequest *request)
{
    std::string text, err;
    if (!ReadFile(path, &text, &err)) {
        std::cerr << err << "\n";
        return false;
    }
    Json json;
    if (!Json::Parse(text, &json, &err) ||
        !ScheduleRequest::FromJson(json, request, &err)) {
        std::cerr << path << ": " << err << "\n";
        return false;
    }
    return true;
}

int
CmdFingerprint(const std::vector<std::string> &args)
{
    std::string path, stats_path;
    bool canonical = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--canonical") {
            canonical = true;
        } else if (arg == "--stats") {
            if (i + 1 >= args.size()) {
                std::cerr << "--stats needs a value\n";
                return 2;
            }
            stats_path = args[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown flag " << arg << "\n";
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::cerr << "more than one request JSON given\n";
            return 2;
        }
    }
    if (path.empty()) {
        std::cerr << "usage: somac fingerprint request.json "
                     "[--canonical] [--stats FILE]\n";
        return 2;
    }
    ScheduleRequest request;
    if (!LoadRequest(path, &request)) return 2;
    std::cout << HexU64(request.Fingerprint()) << "\n";
    if (canonical)
        std::cout << request.CanonicalJson().CanonicalDump() << "\n";
    if (!stats_path.empty()) {
        // The one canonical --stats schema across subcommands: the
        // registry dump (here just the fingerprint counter — no
        // pipeline runs under this subcommand).
        obs::MetricsRegistry::Global()
            .GetCounter("fingerprint.requests")
            .Add();
        std::string err;
        const std::string dump =
            obs::MetricsRegistry::Global().ToJson().CanonicalDump() + "\n";
        if (!WriteFile(stats_path, dump, &err)) {
            std::cerr << err << "\n";
            return 2;
        }
    }
    return 0;
}

// ------------------------------------------------------------------ sweep

/** One expanded grid point with its (deterministic) table row. */
struct SweepRow {
    ScheduleRequest request;
    ScheduleResult result;
};

bool
StringAxis(const Json &value, const std::string &key,
           std::vector<std::string> *out, std::string *err)
{
    if (!value.IsArray()) {
        *err = "sweep field \"" + key + "\" must be an array of strings";
        return false;
    }
    for (const Json &v : value.array_items()) {
        if (!v.IsString()) {
            *err = "sweep field \"" + key + "\" must contain strings";
            return false;
        }
        out->push_back(v.AsString());
    }
    return true;
}

bool
NumberAxis(const Json &value, const std::string &key,
           std::vector<double> *out, std::string *err)
{
    if (!value.IsArray()) {
        *err = "sweep field \"" + key + "\" must be an array of numbers";
        return false;
    }
    for (const Json &v : value.array_items()) {
        if (!v.IsNumber()) {
            *err = "sweep field \"" + key + "\" must contain numbers";
            return false;
        }
        out->push_back(v.AsDouble());
    }
    return true;
}

/** Seeds under the request JSON's seed rule (SeedFromJson). */
bool
SeedAxis(const Json &value, const std::string &key,
         std::vector<std::uint64_t> *out, std::string *err)
{
    if (!value.IsArray()) {
        *err = "sweep field \"" + key + "\" must be an array of integers";
        return false;
    }
    for (const Json &v : value.array_items()) {
        std::uint64_t seed = 0;
        if (!SeedFromJson(v, key, &seed, err)) {
            *err = "sweep " + *err;
            return false;
        }
        out->push_back(seed);
    }
    return true;
}

/** The largest grid a sweep expands. Every point holds a request and
 *  a result row (about 1.8 KB before any search), so a few-KB spec
 *  could otherwise ask for more points than memory holds. */
constexpr std::size_t kMaxSweepPoints = 100000;

/** Expand @p spec_json into the grid's requests, in deterministic
 *  nested-loop order (models, batches, hardware, gbuf, dram,
 *  schedulers, profiles, seeds — innermost last). */
bool
ExpandSweepSpec(const Json &spec_json,
                std::vector<ScheduleRequest> *requests, std::string *err)
{
    if (!spec_json.IsObject()) {
        *err = "sweep spec must be a JSON object";
        return false;
    }
    ScheduleRequest base;
    std::vector<std::string> models, hardware, schedulers, profiles;
    std::vector<double> batches, gbuf_mb, dram_gbps;
    std::vector<std::uint64_t> seeds;
    for (const auto &[key, value] : spec_json.items()) {
        if (key == "base") {
            if (!ScheduleRequest::FromJson(value, &base, err)) {
                *err = "sweep base: " + *err;
                return false;
            }
        } else if (key == "models") {
            if (!StringAxis(value, key, &models, err)) return false;
        } else if (key == "hardware") {
            if (!StringAxis(value, key, &hardware, err)) return false;
        } else if (key == "schedulers") {
            if (!StringAxis(value, key, &schedulers, err)) return false;
        } else if (key == "profiles") {
            if (!StringAxis(value, key, &profiles, err)) return false;
        } else if (key == "batches") {
            if (!NumberAxis(value, key, &batches, err)) return false;
        } else if (key == "gbuf_mb") {
            if (!NumberAxis(value, key, &gbuf_mb, err)) return false;
        } else if (key == "dram_gbps") {
            if (!NumberAxis(value, key, &dram_gbps, err)) return false;
        } else if (key == "seeds") {
            if (!SeedAxis(value, key, &seeds, err)) return false;
        } else {
            *err = "unknown sweep field \"" + key + "\"";
            return false;
        }
    }

    // An absent axis collapses to the base request's value; an empty
    // one empties the grid.
    auto absent = [&](const char *key) { return !spec_json.Find(key); };
    if (absent("models")) models.push_back(base.model);
    if (absent("hardware")) hardware.push_back(base.hardware);
    if (absent("schedulers")) schedulers.push_back(base.scheduler);
    std::vector<SearchProfile> profile_axis;
    if (absent("profiles")) profile_axis.push_back(base.profile);
    for (const std::string &p : profiles) {
        SearchProfile parsed;
        if (!ParseSearchProfile(p, &parsed)) {
            *err = "unknown profile \"" + p +
                   "\" (expected quick, default or full)";
            return false;
        }
        profile_axis.push_back(parsed);
    }
    std::vector<int> batch_axis;
    if (absent("batches")) batch_axis.push_back(base.batch);
    for (double b : batches) {
        if (b < 1 || b > 1000000 || b != std::floor(b)) {
            *err = "sweep batches must be integers in [1, 1000000]";
            return false;
        }
        batch_axis.push_back(static_cast<int>(b));
    }
    std::vector<Bytes> gbuf_axis;
    if (absent("gbuf_mb")) gbuf_axis.push_back(base.gbuf_bytes);
    for (double mb : gbuf_mb) {
        Bytes bytes = 0;
        if (!MbToBytes(mb, &bytes)) {
            *err = "sweep gbuf_mb must be 0 or sizes in [1, 2^63) bytes";
            return false;
        }
        gbuf_axis.push_back(bytes);
    }
    std::vector<double> dram_axis;
    if (absent("dram_gbps")) dram_axis.push_back(base.dram_gbps);
    for (double g : dram_gbps) {
        if (g < 0) {
            *err = "sweep dram_gbps must be non-negative";
            return false;
        }
        dram_axis.push_back(g);
    }
    std::vector<std::uint64_t> seed_axis = seeds;
    if (absent("seeds")) seed_axis.push_back(base.seed);

    const std::size_t axis_lens[] = {models.size(), batch_axis.size(),
                                     hardware.size(), gbuf_axis.size(),
                                     dram_axis.size(), schedulers.size(),
                                     profile_axis.size(), seed_axis.size()};
    for (std::size_t len : axis_lens) {
        if (len == 0) {
            *err = "sweep spec expands to zero requests";
            return false;
        }
    }
    // Every axis holds at least one value; multiply without overflow.
    std::size_t points = 1;
    for (std::size_t len : axis_lens) {
        if (points > kMaxSweepPoints / len) {
            *err = "sweep spec expands to more than " +
                   std::to_string(kMaxSweepPoints) + " requests";
            return false;
        }
        points *= len;
    }

    for (const std::string &model : models)
        for (int batch : batch_axis)
            for (const std::string &hw : hardware)
                for (Bytes gbuf : gbuf_axis)
                    for (double dram : dram_axis)
                        for (const std::string &sched : schedulers)
                            for (SearchProfile profile : profile_axis)
                                for (std::uint64_t seed : seed_axis) {
                                    ScheduleRequest r = base;
                                    r.model = model;
                                    r.batch = batch;
                                    r.hardware = hw;
                                    r.gbuf_bytes = gbuf;
                                    r.dram_gbps = dram;
                                    r.scheduler = sched;
                                    r.profile = profile;
                                    r.seed = seed;
                                    requests->push_back(std::move(r));
                                }
    return true;
}

std::string
FormatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

const char *
RowStatus(const ScheduleResult &result)
{
    // "deadline" rows with numbers carry a truncated-but-valid scheme;
    // without numbers the deadline passed before anything was found.
    if (result.deadline_expired) return "deadline";
    return result.ok ? "ok" : "error";
}

/** One table row. Only deterministic fields appear — no timings, no
 *  cache provenance — so a warm re-run emits identical bytes. */
std::string
CsvRow(const SweepRow &row)
{
    const ScheduleRequest &rq = row.request;
    const ScheduleResult &rs = row.result;
    std::ostringstream os;
    os << HexU64(rq.Fingerprint()) << ',' << rq.model << ',' << rq.batch
       << ',' << rq.hardware << ',' << rq.gbuf_bytes << ','
       << FormatDouble(rq.dram_gbps) << ',' << rq.scheduler << ','
       << ToString(rq.profile) << ',' << rq.seed << ','
       << RowStatus(rs);
    if (rs.ok) {
        os << ',' << FormatDouble(rs.cost) << ','
           << FormatDouble(rs.report.latency) << ','
           << FormatDouble(rs.report.EnergyJ()) << ','
           << rs.report.dram_bytes << ',' << rs.stats.iterations;
    } else {
        os << ",,,,,";
    }
    return os.str();
}

Json
JsonRow(const SweepRow &row)
{
    const ScheduleRequest &rq = row.request;
    const ScheduleResult &rs = row.result;
    Json json = Json::Object();
    json.Set("fingerprint", Json::Str(HexU64(rq.Fingerprint())));
    json.Set("model", Json::Str(rq.model));
    json.Set("batch", Json::Int(rq.batch));
    json.Set("hardware", Json::Str(rq.hardware));
    json.Set("gbuf_bytes", Json::Int(rq.gbuf_bytes));
    json.Set("dram_gbps", Json::Number(rq.dram_gbps));
    json.Set("scheduler", Json::Str(rq.scheduler));
    json.Set("profile", Json::Str(ToString(rq.profile)));
    json.Set("seed", Json::U64(rq.seed));
    json.Set("status", Json::Str(RowStatus(rs)));
    if (rs.ok) {
        json.Set("cost", Json::Number(rs.cost));
        json.Set("latency", Json::Number(rs.report.latency));
        json.Set("energy_j", Json::Number(rs.report.EnergyJ()));
        json.Set("dram_bytes", Json::Int(rs.report.dram_bytes));
        json.Set("iterations", Json::Int(rs.stats.iterations));
    } else {
        json.Set("error", Json::Str(rs.error));
    }
    return json;
}

constexpr const char *kSweepCsvHeader =
    "fingerprint,model,batch,hardware,gbuf_bytes,dram_gbps,scheduler,"
    "profile,seed,status,cost,latency,energy_j,dram_bytes,iterations";

/** Parse "I/N" (0 <= I < N) for --shard. */
bool
ParseShardArg(const std::string &text, int *index, int *count)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size()) {
        std::cerr << "--shard: \"" << text << "\" is not of the form I/N\n";
        return false;
    }
    if (!ParseIntArg("--shard", text.substr(0, slash), index) ||
        !ParseIntArg("--shard", text.substr(slash + 1), count)) {
        return false;
    }
    if (*count < 1 || *index < 0 || *index >= *count) {
        std::cerr << "--shard: need 0 <= I < N, got " << text << "\n";
        return false;
    }
    return true;
}

int
CmdSweep(const std::vector<std::string> &args)
{
    std::string spec_path, csv_path, json_path, stats_path, cache_dir;
    std::string trace_path, memory_model;
    int cache_capacity = 0, jobs = 2, repeat = 1;
    int shard_index = 0, shard_count = 1;
    bool quiet = false;

    auto need_value = [&args](std::size_t i, const std::string &flag)
        -> const std::string * {
        if (i + 1 >= args.size()) {
            std::cerr << flag << " needs a value\n";
            return nullptr;
        }
        return &args[i + 1];
    };
    // --cache-capacity, --jobs and --repeat take an integer N >= 1.
    auto parse_count = [&need_value](std::size_t i, const std::string &flag,
                                     int *out) {
        const std::string *v = need_value(i, flag);
        if (!v || !ParseIntArg(flag, *v, out)) return false;
        if (*out < 1) {
            std::cerr << flag << ": need N >= 1, got " << *out << "\n";
            return false;
        }
        return true;
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const std::string *v = nullptr;
        if (arg.empty() || arg[0] != '-') {
            if (!spec_path.empty()) {
                std::cerr << "more than one sweep spec given (\"" << arg
                          << "\")\n";
                return 2;
            }
            spec_path = arg;
        } else if (arg == "--csv") {
            if (!(v = need_value(i, arg))) return 2;
            csv_path = *v, ++i;
        } else if (arg == "--json") {
            if (!(v = need_value(i, arg))) return 2;
            json_path = *v, ++i;
        } else if (arg == "--stats") {
            if (!(v = need_value(i, arg))) return 2;
            stats_path = *v, ++i;
        } else if (arg == "--trace") {
            if (!(v = need_value(i, arg))) return 2;
            trace_path = *v, ++i;
        } else if (arg == "--memory-model") {
            if (!(v = need_value(i, arg))) return 2;
            memory_model = *v, ++i;
        } else if (arg == "--cache-dir") {
            if (!(v = need_value(i, arg))) return 2;
            cache_dir = *v, ++i;
        } else if (arg == "--cache-capacity") {
            if (!parse_count(i++, arg, &cache_capacity)) return 2;
        } else if (arg == "--jobs") {
            if (!parse_count(i++, arg, &jobs)) return 2;
        } else if (arg == "--repeat") {
            if (!parse_count(i++, arg, &repeat)) return 2;
        } else if (arg == "--shard") {
            if (!(v = need_value(i, arg))) return 2;
            if (!ParseShardArg(*v, &shard_index, &shard_count)) return 2;
            ++i;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::cerr << "unknown flag " << arg << "\n";
            return 2;
        }
    }
    if (spec_path.empty()) {
        std::cerr << "usage: somac sweep spec.json [--csv FILE] "
                     "[--stats FILE] [--cache-dir DIR] [--shard I/N]\n";
        return 2;
    }

    std::string text, err;
    if (!ReadFile(spec_path, &text, &err)) {
        std::cerr << err << "\n";
        return 2;
    }
    Json spec_json;
    if (!Json::Parse(text, &spec_json, &err)) {
        std::cerr << spec_path << ": " << err << "\n";
        return 2;
    }
    std::vector<ScheduleRequest> requests;
    if (!ExpandSweepSpec(spec_json, &requests, &err)) {
        std::cerr << spec_path << ": " << err << "\n";
        return 2;
    }
    // A memory model is a timing-backend choice, not a grid axis:
    // --memory-model retimes the whole sweep (the spec's base request
    // can still pin one per-sweep via its memory_model field).
    if (!memory_model.empty())
        for (ScheduleRequest &r : requests) r.memory_model = memory_model;
    const std::size_t grid_size = requests.size();
    if (shard_count > 1) {
        // Deterministic work partition: shard I keeps grid points
        // I, I+N, I+2N, ... of the expansion order. Striding (rather
        // than contiguous chunks) balances heavy axes — e.g. a sweep
        // whose slowest model expands first — across the shards.
        std::vector<ScheduleRequest> mine;
        mine.reserve((requests.size() + shard_count - 1) / shard_count);
        for (std::size_t i = shard_index; i < requests.size();
             i += static_cast<std::size_t>(shard_count)) {
            mine.push_back(std::move(requests[i]));
        }
        requests = std::move(mine);
        // An empty shard (more shards than grid points) is a valid
        // partition: the normal path below emits a header-only table,
        // an empty JSON array and zero stats, and exits 0, so fixed
        // N-way split scripts work on any grid size.
        if (requests.empty() && !quiet)
            std::cerr << "[somac] sweep: shard " << shard_index << "/"
                      << shard_count << " is empty (grid has "
                      << grid_size << " points); nothing to do\n";
    }

    ServiceOptions options;
    options.cache_dir = cache_dir;
    if (cache_capacity > 0)
        options.result_cache_capacity =
            static_cast<std::size_t>(cache_capacity);
    SchedulerService service(options);

    if (!quiet) {
        std::cerr << "[somac] sweep: " << requests.size() << " requests";
        if (shard_count > 1)
            std::cerr << " (shard " << shard_index << "/" << shard_count
                      << " of " << grid_size << ")";
        std::cerr << ", jobs=" << jobs
                  << (cache_dir.empty() ? ""
                                        : ", cache-dir=" + cache_dir)
                  << "\n";
    }

    // One sweep-scoped tracer shared by every worker (the Tracer is
    // internally synchronized; spans carry dense per-process tids).
    // Observational only: the table bytes are identical with and
    // without --trace.
    obs::Tracer tracer;
    std::optional<obs::ProfEnableScope> prof_hold;
    if (!trace_path.empty() || !stats_path.empty()) prof_hold.emplace();

    const auto t0 = obs::MonotonicNow();
    std::vector<SweepRow> rows(requests.size());
    std::string first_table;
    for (int pass = 0; pass < repeat; ++pass) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
            rows[i].request = requests[i];
            if (!trace_path.empty()) rows[i].request.trace = &tracer;
            rows[i].result = ScheduleResult{};
        }

        // Work-stealing over the grid; rows land at their expansion
        // index, so the table order never depends on jobs or
        // completion order.
        RunOnWorkers(jobs, static_cast<int>(rows.size()), [&](int i) {
            rows[i].result = service.Schedule(rows[i].request);
        });

        // The determinism self-check behind --repeat: every pass over
        // one grid — cold, then result-cache-warm — must produce the
        // identical table.
        std::ostringstream table;
        table << kSweepCsvHeader << "\n";
        for (const SweepRow &row : rows) table << CsvRow(row) << "\n";
        if (pass == 0) {
            first_table = table.str();
        } else if (table.str() != first_table) {
            std::cerr << "[somac] sweep: pass " << pass
                      << " diverged from pass 0 — the warm table is "
                         "not byte-identical to the cold one\n";
            return 1;
        }
    }
    const double seconds = obs::SecondsSince(t0);

    // ---- emit the results table (and optional JSON/stats mirrors).
    if (csv_path.empty()) {
        std::cout << first_table;
    } else if (!WriteFile(csv_path, first_table, &err)) {
        std::cerr << err << "\n";
        return 2;
    }
    if (!json_path.empty()) {
        Json array = Json::Array();
        for (const SweepRow &row : rows) array.Append(JsonRow(row));
        if (!WriteFile(json_path, array.Dump(2) + "\n", &err)) {
            std::cerr << err << "\n";
            return 2;
        }
    }
    const ServiceStats stats = service.stats();
    if (!stats_path.empty()) {
        // The canonical --stats schema: the service counters exported
        // as flat dotted keys into the process-wide registry (which
        // already carries the pipeline.* / prof.* metrics the executed
        // searches recorded), dumped with sorted keys.
        auto &registry = obs::MetricsRegistry::Global();
        stats.ExportTo(registry);
        registry.GetGauge("sweep.seconds").Set(seconds);
        const std::string dump = registry.ToJson().CanonicalDump() + "\n";
        if (!WriteFile(stats_path, dump, &err)) {
            std::cerr << err << "\n";
            return 2;
        }
    }
    if (!trace_path.empty()) {
        if (!WriteFile(trace_path, tracer.ToJson().Dump(2) + "\n", &err)) {
            std::cerr << err << "\n";
            return 2;
        }
        if (!quiet)
            std::cerr << "[somac] wrote " << tracer.NumEvents()
                      << " trace events to " << trace_path << "\n";
    }

    std::size_t failed = 0;
    for (const SweepRow &row : rows)
        if (!row.result.ok) ++failed;
    if (!quiet) {
        std::cerr << "[somac] sweep done: " << rows.size() << " requests";
        if (repeat > 1) std::cerr << " x " << repeat << " passes";
        std::cerr << " (" << failed << " failed) in " << seconds << "s — "
                  << stats.searches << " searches, "
                  << stats.result_cache.hits << " cache hits ("
                  << stats.result_cache.disk_hits << " from disk), "
                  << stats.coalesced << " coalesced\n";
    }
    return failed == 0 ? 0 : 1;
}

/** Schema check for result JSONs: required keys with the right types. */
int
CmdValidate(const std::vector<std::string> &args)
{
    if (args.size() != 1) {
        std::cerr << "usage: somac validate result.json\n";
        return 2;
    }
    std::string text, err;
    if (!ReadFile(args[0], &text, &err)) {
        std::cerr << err << "\n";
        return 2;
    }
    Json json;
    if (!Json::Parse(text, &json, &err)) {
        std::cerr << args[0] << ": " << err << "\n";
        return 1;
    }

    std::vector<std::string> problems;
    auto require = [&](const char *key, Json::Type type) -> const Json * {
        const Json *v = json.Find(key);
        if (!v) {
            problems.push_back(std::string("missing field \"") + key +
                               "\"");
            return nullptr;
        }
        if (v->type() != type) {
            problems.push_back(std::string("field \"") + key +
                               "\" has the wrong type");
            return nullptr;
        }
        return v;
    };

    const Json *ok = require("ok", Json::Type::kBool);
    require("model", Json::Type::kString);
    require("hardware", Json::Type::kString);
    require("scheduler", Json::Type::kString);
    require("profile", Json::Type::kString);
    require("seed", Json::Type::kNumber);
    require("stats", Json::Type::kObject);
    const Json *report = require("report", Json::Type::kObject);
    if (report) {
        static const char *kNums[] = {
            "core_energy_j", "dram_energy_j", "compute_util",
            "theory_max_util", "peak_buffer", "dram_bytes",
            "num_tiles", "num_tensors", "num_flgs", "num_lgs"};
        for (const char *key : kNums) {
            const Json *v = report->Find(key);
            if (!v || !v->IsNumber())
                problems.push_back(std::string("report.") + key +
                                   " missing or not a number");
        }
        const Json *valid = report->Find("valid");
        if (!valid || !valid->IsBool())
            problems.push_back("report.valid missing or not a boolean");
        if (ok && ok->AsBool()) {
            if (valid && !valid->AsBool())
                problems.push_back("ok is true but report.valid is false");
            const Json *latency = report->Find("latency");
            if (!latency || !latency->IsNumber() ||
                !(latency->AsDouble() > 0))
                problems.push_back(
                    "ok result needs a positive numeric report.latency");
        }
    }
    if (ok && ok->AsBool()) {
        const Json *scheme = json.Find("scheme");
        if (!scheme || !scheme->IsString() || scheme->AsString().empty())
            problems.push_back("ok result needs a non-empty scheme");
    }

    if (!problems.empty()) {
        for (const std::string &p : problems)
            std::cerr << args[0] << ": " << p << "\n";
        return 1;
    }
    std::cout << args[0] << ": valid result JSON\n";
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) return Usage(std::cerr, 2);
    const std::string cmd = args[0];
    args.erase(args.begin());
    int (*const command)(const std::vector<std::string> &) =
        cmd == "run"           ? CmdRun
        : cmd == "sweep"       ? CmdSweep
        : cmd == "fingerprint" ? CmdFingerprint
        : cmd == "list"        ? CmdList
        : cmd == "validate"    ? CmdValidate
                               : nullptr;
    auto is_help_flag = [](const std::string &a) {
        return a == "--help" || a == "-h";
    };
    if (command) {
        // The one usage text covers every subcommand's flags.
        if (std::any_of(args.begin(), args.end(), is_help_flag))
            return Usage(std::cout, 0);
        return command(args);
    }
    if (cmd == "help" || is_help_flag(cmd)) return Usage(std::cout, 0);
    std::cerr << "unknown command \"" << cmd << "\"\n\n";
    return Usage(std::cerr, 2);
}

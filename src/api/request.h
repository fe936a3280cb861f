/**
 * @file
 * The declarative half of the unified scheduler API: a ScheduleRequest
 * describes *what* to schedule (workload, hardware point, objective,
 * search profile, scheduler, artifacts) and a ScheduleResult carries
 * everything a consumer may want back (scheme, EvalReport, optional
 * IR / instruction / trace artifacts, search statistics, timings).
 *
 * Both sides serialize to JSON (the somac CLI's wire format). The JSON
 * encoding is lossless for every scheduling-relevant field: doubles are
 * written with 17 significant digits and seeds as exact integers, so a
 * request round-tripped through JSON produces bit-identical results and
 * a round-tripped result compares bit-for-bit on latency/energy.
 *
 * Inline graphs (ScheduleRequest::graph) are an in-process convenience
 * and intentionally have no JSON form — named models go through the
 * ModelRegistry instead.
 */
#ifndef SOMA_API_REQUEST_H
#define SOMA_API_REQUEST_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/json.h"
#include "search/soma.h"
#include "sim/report.h"
#include "workload/graph.h"

namespace soma {

namespace obs {
class Tracer;
}

/**
 * The one seed rule, shared by a request's "seed" and a sweep's
 * "seeds" axis: an integer in [0, 2^64). Integer literals keep their
 * exact u64; any other number must be integral and in range, never
 * truncated. On failure @p err names @p key.
 */
bool SeedFromJson(const Json &value, const std::string &key,
                  std::uint64_t *out, std::string *err);

/** Which optional outputs the pipeline should materialize. */
struct ArtifactRequest {
    bool ir = false;            ///< textual IR (compiler/ir.h)
    bool instructions = false;  ///< load/store/compute stream (.asm text)
    bool traces = false;        ///< compute/dram/buffer CSV traces
    bool execution_graph = false;  ///< Fig. 8 style text rendering
    int execution_graph_rows = 40;
};

/** Progress notification fired at pipeline phase boundaries. */
struct ProgressEvent {
    std::string phase;  ///< "build" | "search" | "artifacts" | "done"
    double elapsed_seconds = 0.0;
};

/**
 * One scheduling request. Defaults describe the cheapest sensible run:
 * quick profile, edge hardware, the SoMa two-stage scheduler, no
 * artifacts.
 */
struct ScheduleRequest {
    /** Workload: a ModelRegistry name plus batch size... */
    std::string model;
    int batch = 1;
    /** ...or an inline graph, which takes precedence over `model`.
     *  In-process only (not serialized). */
    std::shared_ptr<const Graph> graph;

    /** HardwareRegistry name, plus optional DSE-style overrides
     *  (0 = keep the registry preset's value; any other value must be
     *  positive and finite, or the request fails). */
    std::string hardware = "edge";
    Bytes gbuf_bytes = 0;
    double dram_gbps = 0.0;

    /**
     * MemoryModelRegistry name steering the evaluator's DRAM-timing
     * seam: "" (default, = "analytical"), "analytical", "banked".
     * Result-affecting, so it is serialized and fingerprint-included;
     * the empty default is *omitted* from JSON, which keeps every
     * pre-seam fingerprint (and cached result) valid.
     */
    std::string memory_model;

    /**
     * Re-time the final schedule under the banked model's trace replay
     * and publish the analytical-vs-banked gap (metrics
     * memory.validation_gap_pct, eval.dram.*). Observational: result
     * bytes are unchanged, so like `trace` it is not serialized and is
     * excluded from Fingerprint(). The CLI face is
     * `somac run --validate-memory` (implied by --memory-model banked).
     */
    bool validate_memory = false;

    /** SchedulerRegistry name: "soma", "cocco", "lfa-only", ... */
    std::string scheduler = "soma";
    SearchProfile profile = SearchProfile::kQuick;
    std::uint64_t seed = 1;

    /** Objective exponents: Energy^n x Delay^m. */
    double cost_n = 1.0;
    double cost_m = 1.0;

    /** SearchDriver overrides (0 = profile default). `chains` (at most
     *  256) changes results deterministically; `threads` never does. */
    int chains = 0;
    int threads = 0;

    /**
     * Wall-clock budget for the whole request in milliseconds (0 =
     * none). The search polls it iteration-granularly and stops early
     * with its best-so-far once expired; the result then carries
     * deadline_expired = true (ok if a valid scheme was found by then,
     * an error otherwise). A QoS knob, not identity: requests that
     * finish within their deadline are bit-identical to unconstrained
     * runs, so Fingerprint() excludes it (like `threads`).
     */
    int deadline_ms = 0;

    ArtifactRequest artifacts;

    /** Fired from the executing thread at phase boundaries. Not
     *  serialized. */
    std::function<void(const ProgressEvent &)> on_progress;

    /**
     * Cooperative cancel flag polled inside the search (every
     * kStopCheckInterval iterations, search/driver.h) and at phase
     * boundaries. Point it at your own atomic to cancel a running
     * Schedule() from another thread. Not serialized.
     */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * The resolved deadline_ms cutoff. SchedulerService anchors it at
     * service entry, the facade at pipeline start when still unset, so
     * "expired" means the same instant to a coalesced wait, the search
     * loops and the result's deadline_expired flag. Leave default: set
     * internally (a caller-set value is honored, for tests). Not
     * serialized.
     */
    std::chrono::steady_clock::time_point deadline_tp{};

    /**
     * Optional span tracer (obs/trace.h): when set, the pipeline and
     * the search stages record phase spans onto it (Chrome trace-event
     * JSON via Tracer::ToJson; `somac run --trace` is the CLI face).
     * Observational only — results are byte-identical with and without
     * a tracer (pinned by test) — so, like `threads`, it is not
     * serialized and excluded from Fingerprint().
     */
    obs::Tracer *trace = nullptr;

    Json ToJson() const;
    /** Strict: unknown keys and type mismatches are errors. */
    static bool FromJson(const Json &json, ScheduleRequest *out,
                         std::string *err);

    /**
     * The request's identity as JSON: ToJson() minus the fields that
     * never change result bytes (`threads`, `deadline_ms`). Dump it
     * with Json::CanonicalDump() for the canonical request text.
     */
    Json CanonicalJson() const;

    /**
     * Stable 64-bit identity: Fnv1a64 over CanonicalDump() of
     * CanonicalJson(). Two requests fingerprint equal iff every
     * result-affecting field matches, regardless of JSON key order or
     * which process computed it — the key of the service layer's
     * result cache and of `somac fingerprint`. Inline-graph requests
     * hash their graph *name* only (the graph itself has no JSON
     * form), so the service layer never caches them.
     */
    std::uint64_t Fingerprint() const;
};

/** Flattened search counters + wall-clock timings of one request. */
struct SearchStatsSummary {
    long long iterations = 0;  ///< SA budget consumed, all stages/chains
    long long evaluated = 0;   ///< candidates actually evaluated
    long long accepted = 0;
    long long improved = 0;
    int outer_iterations = 0;  ///< buffer-allocator iterations
    double search_seconds = 0.0;  ///< exploration only
    double total_seconds = 0.0;   ///< build + search + artifacts
};

/**
 * Everything that comes back from one request. `ok` is the master
 * switch: when false, `error` explains and only the echo fields are
 * meaningful. The in-process payload section carries the raw encodings
 * for consumers that keep computing (IR generation, execution-graph
 * rendering, VM replay); it is not serialized.
 */
struct ScheduleResult {
    bool ok = false;
    std::string error;
    /** True when ScheduleRequest::deadline_ms expired during the run:
     *  the search was truncated and `report` (if valid) is the
     *  best-so-far, not the full-budget result. Distinct from
     *  cancellation (error == "cancelled"). */
    bool deadline_expired = false;

    // Request echo.
    std::string model;
    int batch = 1;
    std::string hardware;
    std::string memory_model;  ///< "" = analytical default
    std::string scheduler;
    SearchProfile profile = SearchProfile::kQuick;
    std::uint64_t seed = 1;

    std::string scheme;  ///< human-readable LFA (LfaEncoding::ToString)
    double cost = 0.0;   ///< Energy^n x Delay^m of `report`
    EvalReport report;
    EvalReport stage1_report;  ///< "Ours_1"; valid only for soma runs

    SearchStatsSummary stats;

    // Artifacts (empty unless requested and ok).
    std::string ir_text;
    std::string asm_text;
    std::string compute_csv;
    std::string dram_csv;
    std::string buffer_csv;
    std::string execution_graph;
    std::string stage1_execution_graph;  ///< soma runs only
    int num_instructions = 0;  ///< filled with `instructions` artifact
    int num_loads = 0;
    int num_stores = 0;
    int num_computes = 0;

    // In-process payload (not serialized).
    std::shared_ptr<const Graph> graph;
    LfaEncoding lfa;
    ParsedSchedule parsed;
    DlsaEncoding dlsa;
    DlsaEncoding stage1_dlsa;

    Json ToJson() const;
    /** Reconstructs every serialized field (scalars + artifacts); the
     *  in-process payload stays empty. */
    static bool FromJson(const Json &json, ScheduleResult *out,
                         std::string *err);
};

/**
 * A result holding only @p request's identity echo (model, batch,
 * hardware, memory model, scheduler, profile, seed) — the fields every
 * reply carries, searched or aborted. A request that names a model
 * echoes that name even when a pre-built graph is attached (the
 * service layer's graph cache injects one), so cached and cold results
 * serialize identically; only pure inline-graph requests echo the
 * graph's own identity.
 */
ScheduleResult EchoRequest(const ScheduleRequest &request);

/** The scalar EvalReport fields as JSON (timelines are not encoded). */
Json ReportToJson(const EvalReport &report);
bool ReportFromJson(const Json &json, EvalReport *out, std::string *err);

/**
 * Apply @p request's objective, driver and stop overrides to options
 * resolved from its profile and seed (SomaOptionsFor, CoccoOptionsFor):
 * the one resolution every builtin scheduler uses, so "same request"
 * means "same search" no matter which path ran it. The stop request
 * is the request's cancel flag and its resolved deadline_tp.
 */
template <typename Options>
Options
WithRequestOverrides(Options opts, const ScheduleRequest &request)
{
    opts.cost_n = request.cost_n;
    opts.cost_m = request.cost_m;
    if (request.chains > 0) opts.driver.chains = request.chains;
    if (request.threads > 0) opts.driver.threads = request.threads;
    opts.driver.cancel = request.cancel;
    opts.driver.deadline = request.deadline_tp;
    opts.driver.trace = request.trace;
    return opts;
}

}  // namespace soma

#endif  // SOMA_API_REQUEST_H

/**
 * @file
 * Per-layer metrics, derived from the traced passes.
 *
 * Spans. Each traced request carries its own obs::Tracer holding the
 * program's phase spans and the benchmark's spans around each public
 * call (bench.request, oracle.*, compiler.*). A layer span's self time
 * is its duration minus the part covered by its direct child layer
 * spans. Spans that subdivide a layer without being one (sa.window,
 * lfa.seed, lfa.final, alloc.iteration) never split self time, and the
 * synthesized prof aggregate spans are ignored: the prof snapshots
 * diffed around each request carry the same numbers.
 *
 * Prof sites. SOMA_PROF_SCOPE totals are inclusive and thread-summed.
 * Self CPU subtracts the sites nested inside, per the code paths:
 *
 *   parse.lfa       > tiling.derive, tilecost.compute (never run
 *                     outside a parse)
 *   eval.full       > eval.timeline, eval.dram.replay
 *   eval.delta      > eval.full (its fallbacks), eval.timeline,
 *                     eval.timeline.delta, eval.dram.replay
 *   eval.delta.lfa  > eval.timeline, eval.timeline.delta,
 *                     eval.dram.replay (its own fallbacks to eval.full
 *                     happen before its scope opens)
 *
 * The leaves (timeline, timeline.delta, dram.replay) can sit under
 * several eval sites; totals cannot say which, so each leaf is charged
 * to its possible parents in proportion to their inclusive time —
 * exact whenever one parent ran alone (e.g. a cocco request). The
 * eval.full time nested in eval.delta is estimated from the DLSA
 * chains' fallback count times the mean eval.full call.
 */
#include <algorithm>
#include <cmath>
#include <set>

#include "bench.h"

namespace perfbench {

namespace {

using soma::Json;
using Metrics = std::map<std::string, double>;

struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the request's tracer began
    double end = 0.0;
    std::map<std::string, double> args;

    double dur() const { return end - start; }
    bool Contains(const Span &o) const
    {
        return start <= o.start && o.end <= end;
    }
    double Arg(const std::string &key) const
    {
        auto it = args.find(key);
        return it == args.end() ? 0.0 : it->second;
    }
};

/** Spans that mark a layer boundary (and so split self time). */
const std::set<std::string> &
LayerSpanNames()
{
    static const std::set<std::string> names = {
        "bench.request",      "service.cache_probe",
        "service.coalesce_wait", "service.search",
        "service.serialize",  "pipeline.build",
        "pipeline.search",    "pipeline.artifacts",
        "pipeline.validate_memory", "alloc.search",
        "lfa.stage",          "lfa.greedy_seed",
        "dlsa.stage",         "oracle.parse",
        "oracle.evaluate",    "compiler.lower",
        "compiler.vm"};
    return names;
}

std::vector<Span>
SpansOf(const Record &r)
{
    std::vector<Span> spans;
    if (!r.tracer) return spans;
    const Json trace = r.tracer->ToJson();
    const Json *events = trace.Find("traceEvents");
    if (!events) return spans;
    for (const Json &ev : events->array_items()) {
        Span s;
        s.name = ev.Find("name")->AsString();
        s.start = ev.Find("ts")->AsDouble() * 1e-6;
        s.end = s.start + ev.Find("dur")->AsDouble() * 1e-6;
        if (const Json *args = ev.Find("args"))
            for (const auto &kv : args->items())
                if (kv.second.IsNumber())
                    s.args[kv.first] = kv.second.AsDouble();
        spans.push_back(std::move(s));
    }
    return spans;
}

/** Index of the innermost layer span strictly enclosing spans[i]
 *  (-1 at top level). Ties between identical intervals go to the
 *  earlier-recorded span. */
int
EnclosingLayer(const std::vector<Span> &spans, int i)
{
    int best = -1;
    for (int j = 0; j < static_cast<int>(spans.size()); ++j) {
        if (j == i || !LayerSpanNames().count(spans[j].name)) continue;
        if (!spans[j].Contains(spans[i])) continue;
        if (spans[i].Contains(spans[j]) && j > i) continue;
        if (best < 0 || spans[j].dur() < spans[best].dur()) best = j;
    }
    return best;
}

/** Self time of every layer span, by span name, summed. */
Metrics
LayerSelfTimes(const std::vector<Span> &spans)
{
    const int n = static_cast<int>(spans.size());
    std::vector<std::vector<std::pair<double, double>>> children(n);
    for (int i = 0; i < n; ++i) {
        if (!LayerSpanNames().count(spans[i].name)) continue;
        const int parent = EnclosingLayer(spans, i);
        if (parent >= 0)
            children[parent].push_back({spans[i].start, spans[i].end});
    }
    Metrics self;
    for (int i = 0; i < n; ++i) {
        if (!LayerSpanNames().count(spans[i].name)) continue;
        std::vector<std::pair<double, double>> &c = children[i];
        std::sort(c.begin(), c.end());
        double covered = 0.0, reach = spans[i].start;
        for (const auto &iv : c) {
            const double a = std::max(iv.first, reach);
            if (iv.second > a) covered += iv.second - a;
            reach = std::max(reach, iv.second);
        }
        self[spans[i].name] += spans[i].dur() - covered;
    }
    return self;
}

double
Inclusive(const std::vector<soma::obs::ProfEntry> &prof,
          const std::string &name, double *calls = nullptr)
{
    for (const soma::obs::ProfEntry &e : prof) {
        if (e.name != name) continue;
        if (calls) *calls = static_cast<double>(e.calls);
        return e.nanos * 1e-9;
    }
    if (calls) *calls = 0.0;
    return 0.0;
}

/** Self CPU of the prof sites (see the file comment); adds into @p m
 *  and returns the total attributed. */
double
AttributeProf(const std::vector<soma::obs::ProfEntry> &prof,
              double dlsa_fallbacks, Metrics *m)
{
    double parse_calls, derive_calls, tilecost_calls, full_calls;
    const double parse = Inclusive(prof, "parse.lfa", &parse_calls);
    const double derive = Inclusive(prof, "tiling.derive", &derive_calls);
    const double tilecost =
        Inclusive(prof, "tilecost.compute", &tilecost_calls);
    const double full = Inclusive(prof, "eval.full", &full_calls);
    const double delta = Inclusive(prof, "eval.delta");
    const double delta_lfa = Inclusive(prof, "eval.delta.lfa");
    const double timeline = Inclusive(prof, "eval.timeline");
    const double timeline_delta = Inclusive(prof, "eval.timeline.delta");
    const double replay = Inclusive(prof, "eval.dram.replay");

    const double nested_full =
        full_calls > 0 ? std::min(full, dlsa_fallbacks * full / full_calls)
                       : 0.0;
    // Leaf shares by parent weight (eval.delta without its nested
    // eval.full, whose own leaves eval.full already carries).
    const double w_full = full, w_delta = delta - nested_full,
                 w_lfa = delta_lfa;
    auto share = [](double leaf, double w, double total) {
        return total > 0 ? leaf * w / total : 0.0;
    };
    const double all3 = w_full + w_delta + w_lfa, two = w_delta + w_lfa;
    auto leaves_of = [&](double w, bool windowed_parent) {
        return share(timeline + replay, w, all3) +
               (windowed_parent ? share(timeline_delta, w, two) : 0.0);
    };
    const double self_full = std::max(0.0, full - leaves_of(w_full, false));
    const double self_delta =
        std::max(0.0, w_delta - leaves_of(w_delta, true));
    const double self_lfa = std::max(0.0, w_lfa - leaves_of(w_lfa, true));
    const double self_parse = std::max(0.0, parse - derive - tilecost);

    (*m)["parse.calls"] += parse_calls;
    (*m)["parse.self_cpu_s"] += self_parse;
    (*m)["tiling.derive_cpu_s"] += derive;
    (*m)["tiling.derive_calls"] += derive_calls;
    (*m)["tilecost.cpu_s"] += tilecost;
    (*m)["tilecost.calls"] += tilecost_calls;
    (*m)["eval.full_cpu_s"] += self_full;
    (*m)["eval.delta_cpu_s"] += self_delta;
    (*m)["eval.delta_lfa_cpu_s"] += self_lfa;
    (*m)["eval.timeline_cpu_s"] += timeline;
    (*m)["eval.timeline_delta_cpu_s"] += timeline_delta;
    (*m)["memory.replay_cpu_s"] += replay;
    return self_parse + derive + tilecost + self_full + self_delta +
           self_lfa + timeline + timeline_delta + replay;
}

/** Span-derived metrics of one request; returns its DLSA chains'
 *  fallback count (for AttributeProf). */
double
AddSpanMetrics(const Record &r, Metrics *m, double *tiling_hits,
               double *tiling_lookups, std::vector<double> *gaps)
{
    static const std::map<std::string, std::string> kSelf = {
        {"lfa.stage", "search.lfa_stage_s"},
        {"lfa.greedy_seed", "search.greedy_seed_s"},
        {"dlsa.stage", "search.dlsa_stage_s"}};
    const std::vector<Span> spans = SpansOf(r);
    for (const auto &kv : LayerSelfTimes(spans)) {
        auto it = kSelf.find(kv.first);
        if (it != kSelf.end()) (*m)[it->second] += kv.second;
    }
    static const std::map<std::string, std::string> kInclusive = {
        {"pipeline.search", "api.search_s"},
        {"pipeline.build", "api.build_s"},
        {"pipeline.artifacts", "api.artifacts_s"},
        {"pipeline.validate_memory", "memory.validate_s"},
        {"service.cache_probe", "service.probe_s"},
        {"service.search", "service.search_s"},
        {"service.serialize", "service.serialize_s"},
        {"service.coalesce_wait", "service.coalesce_wait_s"},
        {"compiler.lower", "compiler.lower_s"},
        {"compiler.vm", "compiler.vm_s"}};

    // sa.window spans, keyed by their enclosing stage: per exchange
    // round the slowest chain sets the pace; the last window of each
    // chain carries its cumulative delta-evaluation counters.
    std::map<std::pair<int, int>, std::vector<double>> rounds;
    std::map<std::pair<int, int>, const Span *> last_window;
    double dlsa_fallbacks = 0.0;
    const Span *last_lfa_stage = nullptr;
    for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
        const Span &s = spans[i];
        auto it = kInclusive.find(s.name);
        if (it != kInclusive.end()) (*m)[it->second] += s.dur();
        if (s.name == "pipeline.search" &&
            r.result.scheduler == "cocco")
            (*m)["cocco.search_s"] += s.dur();
        if (s.name == "pipeline.validate_memory")
            gaps->push_back(s.Arg("gap_pct"));
        if (s.name == "compiler.vm")
            (*m)["compiler.instructions"] += s.Arg("instructions");
        if (s.name == "lfa.stage" &&
            (!last_lfa_stage || s.end > last_lfa_stage->end))
            last_lfa_stage = &s;
        if (s.name != "sa.window") continue;
        const int stage = EnclosingLayer(spans, i);
        const int round = static_cast<int>(s.Arg("round"));
        const int chain = static_cast<int>(s.Arg("chain"));
        rounds[{stage, round}].push_back(s.dur());
        const Span *&last = last_window[{stage, chain}];
        if (!last || s.Arg("round") > last->Arg("round")) last = &s;
    }
    for (const auto &kv : rounds) {
        const double slowest =
            *std::max_element(kv.second.begin(), kv.second.end());
        for (double d : kv.second)
            (*m)["search.barrier_wait_s"] += slowest - d;
    }
    for (const auto &kv : last_window) {
        const Span &w = *kv.second;
        (*m)["eval.splices"] += w.Arg("splices");
        (*m)["eval.windowed_runs"] += w.Arg("windowed_runs");
        (*m)["eval.full_fallbacks"] += w.Arg("full_fallbacks");
        (*m)["eval.delta_evals"] += w.Arg("delta_evals");
        const int stage = kv.first.first;
        if (stage >= 0 && spans[stage].name == "dlsa.stage")
            dlsa_fallbacks += w.Arg("full_fallbacks");
    }
    if (last_lfa_stage) {
        *tiling_hits += last_lfa_stage->Arg("tiling_hits");
        *tiling_lookups += last_lfa_stage->Arg("tiling_hits") +
                           last_lfa_stage->Arg("tiling_misses");
    }
    return dlsa_fallbacks;
}

double
Ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-layer metrics of one traced pass. */
Metrics
PassLayers(const Workload &w, const Pass &p)
{
    Metrics m;
    double tiling_hits = 0, tiling_lookups = 0, fallbacks = 0;
    double evaluated = 0, accepted = 0, improved = 0, request_cpu = 0;
    double attributed = 0;
    std::vector<double> gaps;
    for (const Record &r : p.records) {
        const double f =
            AddSpanMetrics(r, &m, &tiling_hits, &tiling_lookups, &gaps);
        fallbacks += f;
        request_cpu += r.cpu_s;
        // Single-client workloads diff the prof sites per request.
        if (!w.through_service) attributed += AttributeProf(r.prof, f, &m);
        if (r.served != Served::kSearched) continue;
        evaluated += r.result.stats.evaluated;
        accepted += r.result.stats.accepted;
        improved += r.result.stats.improved;
        m["search.alloc_iterations"] += r.result.stats.outer_iterations;
    }
    // Prof sites are process-wide: concurrent service requests share
    // them, so the service workload reports pass totals only.
    if (w.through_service) {
        attributed = AttributeProf(p.prof, fallbacks, &m);
        request_cpu = p.cpu_s;
    }
    m["prof.unattributed_cpu_s"] = request_cpu - attributed;

    m["search.evaluated"] = evaluated;
    m["search.accept_ratio"] = Ratio(accepted, evaluated);
    m["search.improve_ratio"] = Ratio(improved, evaluated);
    m["tiling.cache_hit_ratio"] = Ratio(tiling_hits, tiling_lookups);
    m["eval.splice_ratio"] = Ratio(m["eval.splices"], m["eval.windowed_runs"]);
    m["eval.fallback_ratio"] =
        Ratio(m["eval.full_fallbacks"],
              m["eval.full_fallbacks"] + m["eval.delta_evals"]);

    auto counter = [&p](const char *name) {
        auto it = p.counters.find(name);
        return it == p.counters.end() ? 0.0 : it->second;
    };
    m["memory.row_hit_ratio"] =
        Ratio(counter("eval.dram.row_hits"),
              counter("eval.dram.row_hits") + counter("eval.dram.row_misses") +
                  counter("eval.dram.row_conflicts"));
    double gap_sum = 0;
    for (double g : gaps) gap_sum += g;
    m["memory.validation_gap_pct"] = gaps.empty() ? 0.0
                                                  : gap_sum / gaps.size();

    double requests = 0, hits = 0, disk_hits = 0, coalesced = 0;
    double warm_hits = 0, warm_lookups = 0;
    for (const soma::ServiceStats &s : p.services) {
        requests += s.requests;
        hits += s.result_cache.hits;
        disk_hits += s.result_cache.disk_hits;
        coalesced += s.coalesced;
        warm_hits += s.warm_state.tiling_hits;
        warm_lookups += s.warm_state.tiling_hits + s.warm_state.tiling_misses;
    }
    m["service.hit_ratio"] = Ratio(hits, requests);
    m["service.disk_hit_ratio"] = Ratio(disk_hits, requests);
    m["service.coalesced"] = coalesced;
    m["service.warm_tiling_hit_ratio"] = Ratio(warm_hits, warm_lookups);
    return m;
}

}  // namespace

double
Geomean(const std::vector<double> &values)
{
    double log_sum = 0;
    for (double v : values) log_sum += std::log(v);
    return values.empty() ? 0.0 : std::exp(log_sum / values.size());
}

const std::vector<std::pair<std::string, std::string>> &
LayerMetricUnits()
{
    static const std::vector<std::pair<std::string, std::string>> units = {
        {"api.search_s", "s"},
        {"api.build_s", "s"},
        {"api.artifacts_s", "s"},
        {"search.lfa_stage_s", "s"},
        {"search.greedy_seed_s", "s"},
        {"search.dlsa_stage_s", "s"},
        {"search.barrier_wait_s", "s"},
        {"search.evaluated", "count"},
        {"search.accept_ratio", "ratio"},
        {"search.improve_ratio", "ratio"},
        {"search.alloc_iterations", "count"},
        {"search.result_variants", "count"},
        {"search.counter_drift", "ratio"},
        {"parse.calls", "count"},
        {"parse.self_cpu_s", "s"},
        {"tiling.derive_cpu_s", "s"},
        {"tiling.derive_calls", "count"},
        {"tiling.cache_hit_ratio", "ratio"},
        {"tilecost.cpu_s", "s"},
        {"tilecost.calls", "count"},
        {"eval.delta_cpu_s", "s"},
        {"eval.timeline_delta_cpu_s", "s"},
        {"eval.delta_lfa_cpu_s", "s"},
        {"eval.full_cpu_s", "s"},
        {"eval.timeline_cpu_s", "s"},
        {"eval.splice_ratio", "ratio"},
        {"eval.fallback_ratio", "ratio"},
        {"memory.replay_cpu_s", "s"},
        {"memory.validate_s", "s"},
        {"memory.row_hit_ratio", "ratio"},
        {"memory.validation_gap_pct", "%"},
        {"cocco.search_s", "s"},
        {"service.probe_s", "s"},
        {"service.search_s", "s"},
        {"service.serialize_s", "s"},
        {"service.coalesce_wait_s", "s"},
        {"service.hit_ratio", "ratio"},
        {"service.disk_hit_ratio", "ratio"},
        {"service.coalesced", "count"},
        {"service.warm_tiling_hit_ratio", "ratio"},
        {"compiler.lower_s", "s"},
        {"compiler.vm_s", "s"},
        {"compiler.instructions", "count"},
        {"oracle.energy_mismatches", "count"},
        {"trace.overhead_pct", "%"},
        {"prof.unattributed_cpu_s", "s"},
        {"speedup_vs_cocco", "ratio"},
        {"hit_p50_ms", "ms"},
        {"failed_frac", "ratio"},
    };
    return units;
}

double
Median(std::vector<double> values)
{
    return Quantile(std::move(values), 0.5);
}

double
Quantile(std::vector<double> values, double q)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    if (q == 0.5 && values.size() % 2 == 0) {
        const std::size_t h = values.size() / 2;
        return 0.5 * (values[h - 1] + values[h]);
    }
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::max<std::size_t>(rank, 1) - 1];
}

std::map<std::string, double>
LayerMetrics(const Workload &w, const std::vector<Pass> &passes)
{
    // Medians over the traced passes of each per-pass metric.
    std::map<std::string, std::vector<double>> per_pass;
    std::vector<double> traced_wall, plain_wall;
    for (const Pass &p : passes) {
        (p.traced ? traced_wall : plain_wall).push_back(p.wall_s);
        if (!p.traced) continue;
        for (const auto &kv : PassLayers(w, p))
            per_pass[kv.first].push_back(kv.second);
    }
    Metrics out;
    for (const auto &nu : LayerMetricUnits())
        out[nu.first] = Median(per_pass[nu.first]);
    out["trace.overhead_pct"] =
        plain_wall.empty()
            ? 0.0
            : (Median(traced_wall) / Median(plain_wall) - 1.0) * 100.0;

    // Determinism across the passes that issued the same request:
    // distinct result digests beyond the first, and the largest
    // relative spread of its evaluated/accepted counters.
    using Request = std::pair<int, int>;  // (seed set, point)
    std::map<Request, std::set<std::uint64_t>> digests;
    std::map<Request, std::vector<std::pair<double, double>>> counters;
    double failed = 0, attempted = 0, mismatches = 0;
    for (const Pass &p : passes) {
        failed += p.failed;
        attempted += p.records.size();
        mismatches += p.energy_mismatches;
        for (const Record &r : p.records) {
            if (!r.result.ok) continue;
            const Request key{p.seed_set, r.point};
            digests[key].insert(ResultDigest(r.result));
            if (r.served == Served::kSearched)
                counters[key].push_back(
                    {static_cast<double>(r.result.stats.evaluated),
                     static_cast<double>(r.result.stats.accepted)});
        }
    }
    double variants = 0, drift = 0;
    for (const auto &kv : digests) variants += kv.second.size() - 1;
    auto spread = [](double lo, double hi) {
        return hi > 0 ? (hi - lo) / hi : 0.0;
    };
    for (const auto &kv : counters) {
        const auto &c = kv.second;
        for (const auto &a : c)
            for (const auto &b : c)
                drift = std::max({drift, spread(a.first, b.first),
                                  spread(a.second, b.second)});
    }
    out["search.result_variants"] = variants;
    out["search.counter_drift"] = drift;
    out["oracle.energy_mismatches"] = mismatches;
    out["failed_frac"] = Ratio(failed, attempted);
    return out;
}

}  // namespace perfbench

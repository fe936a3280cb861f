/**
 * @file
 * SA hot-path throughput: candidates evaluated per second, the number
 * every search-stage speedup ultimately cashes out as. Tracks these
 * configurations of the DLSA inner loop —
 *
 *   legacy        mutate + PriceDramTensors + EvaluateSchedule (the
 *                 pre-refactor shape: every candidate rebuilds all
 *                 evaluation state, its DRAM prices included, which
 *                 the pre-refactor evaluator derived on every call)
 *   context-full  mutate + EvalContext::Evaluate (reused scratch,
 *                 allocation-free after warm-up)
 *   delta         mutate + EvalContext::EvaluateDelta (timeline resumed
 *                 from the earliest slot the mutation touched, run to
 *                 the end)
 *   driver KxN    RunDlsaStage on the SearchDriver with K chains on N
 *                 threads (aggregate candidates/s at equal per-chain
 *                 budget, plus the process CPU over wall time of the
 *                 best window: about N when every worker got a core)
 *
 * plus the LFA loop (parse-dominated) as legacy (ParseLfa +
 * EvaluateSchedule of the double-buffer DLSA) / incremental (the
 * LFA-stage production path: group-memoized partial re-parse +
 * EvalContext::PriceCanonical), with cross-check passes asserting
 * incremental parses bit-identical to full parses, canonical prices
 * bitwise equal to evaluating the DLSA they stand for, and delta
 * evaluations bit-identical to full simulations. CI gates
 * lfa/incremental >= 2x lfa/legacy and dlsa/delta >= 4x dlsa/legacy.
 *
 * An observability section replays the incremental walk with the
 * SOMA_PROF_SCOPE hot-path hooks disabled (the default) and enabled
 * (what --trace/--stats turn on), and microbenches the cost of one
 * disabled scope. CI gates obs/disabled_overhead_pct — the estimated
 * per-candidate cost of the dormant instrumentation — at < 2%.
 *
 * Every row repeats its walk until at least 100 ms have passed and
 * keeps the fastest of three such windows, so no gated ratio rests on
 * a millisecond of timing.
 *
 * Profiles: SOMA_BENCH_PROFILE=quick|default|full scales the budgets.
 *
 * Run: ./build/bench_sa_throughput [--json <path>]
 */
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>

#include "bench_common.h"
#include "obs/clock.h"
#include "obs/prof.h"
#include "search/dlsa_heuristics.h"
#include "search/dlsa_stage.h"
#include "search/driver.h"
#include "search/lfa_stage.h"
#include "search/soma.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"
#include "workload/graph_builder.h"
#include "workload/models.h"

#if defined(__GNUC__)
#define BENCH_NOINLINE __attribute__((noinline))
#else
#define BENCH_NOINLINE
#endif

namespace {

using namespace soma;
using obs::MonotonicNow;
using obs::MonotonicTime;
using obs::SecondsSince;

/** The two probes behind obs/disabled_overhead_pct: an identical tiny
 *  body with and without a SOMA_PROF_SCOPE, kept out of line so the
 *  timed loops measure the scope, not the inliner. */
BENCH_NOINLINE std::uint64_t
ProbeBaseline(std::uint64_t x)
{
    return x * 2654435761ULL + 12345;
}

BENCH_NOINLINE std::uint64_t
ProbeWithScope(std::uint64_t x)
{
    SOMA_PROF_SCOPE("bench.disabled_probe");
    return x * 2654435761ULL + 12345;
}

/** Process CPU time (user + system) in seconds. */
double
ProcessCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

struct Row {
    std::string name;
    int candidates = 0;
    double seconds = 0.0;
    double cpu_seconds = 0.0;  ///< process CPU; driver rows only
    double PerSecond() const
    {
        return seconds > 0.0 ? candidates / seconds : 0.0;
    }
};

void
PrintRows(const std::vector<Row> &rows, const std::string &baseline)
{
    double base_rate = 0.0;
    for (const Row &r : rows)
        if (r.name == baseline) base_rate = r.PerSecond();
    for (const Row &r : rows) {
        double rel = base_rate > 0.0 ? r.PerSecond() / base_rate : 0.0;
        std::printf("  %-22s %10d cands %8.3f s %12.0f cands/s %7.2fx\n",
                    r.name.c_str(), r.candidates, r.seconds, r.PerSecond(),
                    rel);
        bench::JsonSink::Instance().Add("sa_throughput/" + r.name,
                                        "candidates_per_second",
                                        r.PerSecond());
    }
}

constexpr int kRepeats = 3;
constexpr double kMinWindowSeconds = 0.1;

/** One timed window: repeat @p walk (a callable returning one Row)
 *  until kMinWindowSeconds have passed, summing its candidates and
 *  seconds. */
template <typename WalkFn>
Row
Window(WalkFn &walk)
{
    Row row = walk();
    while (row.seconds < kMinWindowSeconds) {
        const Row more = walk();
        row.candidates += more.candidates;
        row.seconds += more.seconds;
        row.cpu_seconds += more.cpu_seconds;
    }
    return row;
}

/** Time kRepeats windows of @p walk and keep the fastest: a single
 *  short walk on a shared runner is noisy. */
template <typename WalkFn>
Row
BestOf(WalkFn &&walk)
{
    Row best = Window(walk);
    for (int rep = 1; rep < kRepeats; ++rep) {
        Row row = Window(walk);
        if (row.PerSecond() > best.PerSecond()) best = row;
    }
    return best;
}

/** Greedy-walk harness shared by the DLSA loop variants: mutate,
 *  evaluate, and adopt improvements (the accept pattern whose cost the
 *  SA loop pays). */
template <typename EvalFn, typename AcceptFn>
Row
DlsaWalk(const std::string &name, const ParsedSchedule &parsed,
         const DlsaEncoding &initial, double initial_cost, int iters,
         EvalFn &&evaluate, AcceptFn &&on_accept)
{
    DlsaMutator mutate(parsed);
    Rng rng(17);
    DlsaEncoding current = initial, cand;
    DlsaDelta delta;
    double current_cost = initial_cost;
    Row row;
    row.name = name;
    const MonotonicTime t0 = MonotonicNow();
    for (int i = 0; i < iters; ++i) {
        if (!mutate(current, &cand, rng, &delta)) continue;
        double c = evaluate(cand, delta);
        ++row.candidates;
        if (c < current_cost) {
            on_accept();
            std::swap(current, cand);
            current_cost = c;
        }
    }
    row.seconds = SecondsSince(t0);
    return row;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::InitBenchJson(&argc, argv);
    const SearchProfile profile = bench::ProfileFromEnv();
    // Loop sizes: the DLSA and LFA walk lengths and the driver rows'
    // per-chain iteration cap.
    const bool quick = profile == SearchProfile::kQuick;
    const bool full = profile == SearchProfile::kFull;
    const int dlsa_iters = quick ? 2000 : full ? 50000 : 10000;
    const int lfa_iters = quick ? 200 : full ? 4000 : 1000;
    const int stage_cap = quick ? 1500 : full ? 20000 : 6000;

    Graph graph = BuildResNet50(1);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator core_eval(graph, hw);
    const Ops total_ops = graph.TotalOps();

    // A fused multi-LG scheme with real prefetch headroom.
    LfaEncoding lfa = MakeInitialLfa(graph, hw, 64);
    {
        Rng seed_rng(3);
        SomaOptions seed_opts;
        seed_opts.lfa.beta = 5;
        seed_opts.lfa.max_iterations = 200;
        seed_opts.driver.chains = 1;
        seed_opts.driver.threads = 1;
        SearchResult seeded = RunLfaStage(graph, hw, core_eval,
                                          hw.gbuf_bytes, seed_opts,
                                          seed_rng);
        if (seeded.report.valid) lfa = seeded.lfa;
    }
    ParsedSchedule parsed = ParseLfa(graph, lfa, core_eval);
    DlsaEncoding initial = MakeDoubleBufferDlsa(parsed);
    double initial_cost =
        EvaluateSchedule(graph, hw, parsed, initial, hw.gbuf_bytes,
                         total_ops)
            .Cost();

    std::printf("SA hot-path throughput (profile=%s)\n",
                ToString(profile));
    std::printf("workload=resnet50 b=1: %d tiles, %d DRAM tensors, "
                "%d LGs\n\n",
                parsed.NumTiles(), parsed.NumTensors(), parsed.num_lgs);

    // ----------------------------------------------------- DLSA loop
    std::vector<Row> dlsa_rows;
    dlsa_rows.push_back(BestOf([&] {
        return DlsaWalk(
            "dlsa/legacy", parsed, initial, initial_cost, dlsa_iters,
            [&](const DlsaEncoding &d, const DlsaDelta &) {
                PriceDramTensors(hw, &parsed);
                return EvaluateSchedule(graph, hw, parsed, d, hw.gbuf_bytes,
                                        total_ops)
                    .Cost();
            },
            [] {});
    }));

    EvalContext full_ctx(hw, hw.gbuf_bytes, total_ops);
    dlsa_rows.push_back(BestOf([&] {
        return DlsaWalk(
            "dlsa/context-full", parsed, initial, initial_cost, dlsa_iters,
            [&](const DlsaEncoding &d, const DlsaDelta &) {
                return full_ctx.Evaluate(parsed, d).Cost();
            },
            [] {});
    }));

    // A delta walk of @p iters candidates through @p ctx, from the
    // committed initial state.
    auto delta_walk = [&](EvalContext &ctx, const std::string &name,
                          int iters) {
        ctx.Evaluate(parsed, initial);
        ctx.Commit();
        return DlsaWalk(
            name, parsed, initial, initial_cost, iters,
            [&](const DlsaEncoding &d, const DlsaDelta &delta) {
                return ctx.EvaluateDelta(parsed, d, delta).Cost();
            },
            [&] { ctx.Commit(); });
    };
    EvalContext delta_ctx(hw, hw.gbuf_bytes, total_ops);
    dlsa_rows.push_back(BestOf(
        [&] { return delta_walk(delta_ctx, "dlsa/delta", dlsa_iters); }));
    std::printf("DLSA inner loop (%d-iteration walks, best of %d "
                "windows):\n",
                dlsa_iters, kRepeats);
    PrintRows(dlsa_rows, "dlsa/legacy");

    // ------------------------------------------------------ LFA loop
    // Two shapes of the parse-dominated loop:
    //   legacy       rebuild everything per candidate (ParseLfa +
    //                EvaluateSchedule)
    //   incremental  group-memoized partial re-parse + canonical
    //                price (the LFA-stage production path)
    std::vector<Row> lfa_rows;
    lfa_rows.push_back(BestOf([&] {
        Row row;
        row.name = "lfa/legacy";
        Rng rng(23);
        LfaEncoding cur = lfa, cand;
        const MonotonicTime t0 = MonotonicNow();
        for (int i = 0; i < lfa_iters; ++i) {
            if (!MutateLfaEncoding(graph, cur, &cand, 64, rng)) continue;
            ParsedSchedule p = ParseLfa(graph, cand, core_eval);
            if (p.valid) {
                DlsaEncoding d = MakeDoubleBufferDlsa(p);
                EvaluateSchedule(graph, hw, p, d, hw.gbuf_bytes, total_ops);
            }
            ++row.candidates;
        }
        row.seconds = SecondsSince(t0);
        return row;
    }));
    // One LFA walk through @p ctx (a fresh context: cold group memo),
    // priced as RunLfaStage prices; returns the number of candidates.
    auto lfa_context_walk = [&](EvalContext &ctx, int iters) {
        Rng rng(23);
        LfaEncoding cur = lfa, cand;
        int candidates = 0;
        for (int i = 0; i < iters; ++i) {
            if (!MutateLfaEncoding(graph, cur, &cand, 64, rng)) continue;
            ctx.PriceCanonical(ctx.Parse(graph, cand, core_eval),
                               CanonicalDlsa::kDoubleBufferElseLazy, 1.0,
                               1.0);
            ++candidates;
        }
        return candidates;
    };
    lfa_rows.push_back(BestOf([&] {
        Row row;
        row.name = "lfa/incremental";
        EvalContext ctx(hw, hw.gbuf_bytes, total_ops);
        const MonotonicTime t0 = MonotonicNow();
        row.candidates = lfa_context_walk(ctx, lfa_iters);
        row.seconds = SecondsSince(t0);
        return row;
    }));
    std::printf("\nLFA inner loop (%d-iteration walks, parse-dominated, "
                "best of %d windows):\n",
                lfa_iters, kRepeats);
    PrintRows(lfa_rows, "lfa/legacy");

    // The debug cross-checks (EvalContext's cross_check mode aborts on
    // divergence): replay a slice of the LFA walk with every
    // incremental parse verified bit-identical against a from-scratch
    // parse and every canonical price against evaluating its DLSA, and
    // a slice of the DLSA delta walk with every delta evaluation
    // verified bit-identical against a full simulation.
    {
        EvalContext lfa_ctx(hw, hw.gbuf_bytes, total_ops);
        lfa_ctx.set_cross_check(true);
        const int parses = lfa_context_walk(lfa_ctx, std::min(lfa_iters, 100));
        EvalContext ctx(hw, hw.gbuf_bytes, total_ops);
        ctx.set_cross_check(true);
        delta_walk(ctx, "dlsa/cross_check", std::min(dlsa_iters, 1000));
        const auto &ds = ctx.delta_stats();
        std::printf("  cross-check: %d incremental parses and canonical "
                    "prices bit-identical to full parses and evaluations, "
                    "%llu delta evals bit-identical to full simulations\n",
                    parses,
                    static_cast<unsigned long long>(ds.cross_check_passes));
        bench::JsonSink::Instance().Add("sa_throughput/lfa/cross_check",
                                        "parses_verified",
                                        static_cast<double>(parses));
        bench::JsonSink::Instance().Add(
            "sa_throughput/delta/cross_check", "evals_verified",
            static_cast<double>(ds.cross_check_passes));
    }

    // --------------------------------------- SearchDriver (DLSA stage)
    const int hw_threads = ResolveDriverThreads(SearchDriverOptions{});
    std::vector<Row> driver_rows;
    for (int chains : {1, hw_threads > 1 ? hw_threads : 4}) {
        SomaOptions opts;
        opts.dlsa.beta = 1000;
        opts.dlsa.max_iterations = stage_cap;
        opts.driver.chains = chains;
        opts.driver.threads = hw_threads;
        driver_rows.push_back(BestOf([&] {
            Rng rng(31);
            Row row;
            row.name = "driver/" + std::to_string(chains) + "x" +
                       std::to_string(std::min(chains, hw_threads));
            const double cpu0 = ProcessCpuSeconds();
            const MonotonicTime t0 = MonotonicNow();
            DlsaStageResult res = RunDlsaStage(graph, hw, parsed, initial,
                                               hw.gbuf_bytes, opts, rng);
            row.seconds = SecondsSince(t0);
            row.cpu_seconds = ProcessCpuSeconds() - cpu0;
            row.candidates = res.stats.evaluated;
            return row;
        }));
    }
    std::printf("\nSearchDriver DLSA stage (cap %d iters/chain, %d hw "
                "threads):\n",
                stage_cap, hw_threads);
    PrintRows(driver_rows, driver_rows.front().name);
    // A KxN row gains over 1x1 only if its workers ran in parallel:
    // cpu/wall near 1 means they shared about one core.
    for (const Row &r : driver_rows) {
        const double cpu_per_wall =
            r.seconds > 0.0 ? r.cpu_seconds / r.seconds : 0.0;
        std::printf("  %-22s %8.3f s cpu %8.3f s wall %5.2f cpu/wall\n",
                    r.name.c_str(), r.cpu_seconds, r.seconds,
                    cpu_per_wall);
        bench::JsonSink::Instance().Add("sa_throughput/" + r.name,
                                        "cpu_per_wall", cpu_per_wall);
    }

    // ---------------------------- observability overhead (obs layer)
    // The delta walk crosses two SOMA_PROF_SCOPE sites per candidate
    // (eval.delta + eval.timeline). Replay it with the hooks
    // dormant (default) and recording (ProfEnableScope — what
    // --trace/--stats hold), then microbench one *disabled* scope to
    // estimate the cost instrumentation adds when nobody is looking.
    {
        auto incr_walk = [&](const std::string &name) {
            return BestOf([&] {
                EvalContext ctx(hw, hw.gbuf_bytes, total_ops);
                return delta_walk(ctx, name, dlsa_iters);
            });
        };
        std::vector<Row> obs_rows;
        obs_rows.push_back(incr_walk("obs/tracing_off"));
        const std::vector<obs::ProfEntry> before = obs::ProfSnapshot();
        double timeline_share = 0.0;
        {
            obs::ProfEnableScope hold;
            const MonotonicTime t0 = MonotonicNow();
            obs_rows.push_back(incr_walk("obs/tracing_on"));
            // Every window's timeline time over every window's wall.
            const double wall = SecondsSince(t0);
            const std::vector<obs::ProfEntry> after = obs::ProfSnapshot();
            const std::uint64_t timeline_nanos =
                obs::ProfNanos(after, "eval.timeline") -
                obs::ProfNanos(before, "eval.timeline");
            if (wall > 0.0)
                timeline_share =
                    std::min(1.0, timeline_nanos * 1e-9 / wall);
        }

        // One disabled scope = one relaxed load + branch; measure it as
        // (with-scope - baseline) over a long probe loop. The sink
        // keeps the probes from being folded away.
        const int probe_iters = 10000000;
        std::uint64_t acc = 1;
        MonotonicTime t0 = MonotonicNow();
        for (int i = 0; i < probe_iters; ++i) acc = ProbeBaseline(acc);
        const double base_s = SecondsSince(t0);
        t0 = MonotonicNow();
        for (int i = 0; i < probe_iters; ++i) acc = ProbeWithScope(acc);
        const double scoped_s = SecondsSince(t0);
        volatile std::uint64_t sink = acc;
        (void)sink;
        const double scope_ns = std::max(
            0.0, (scoped_s - base_s) * 1e9 / probe_iters);
        const Row &off = obs_rows.front();
        const double cand_ns =
            off.candidates > 0 ? off.seconds * 1e9 / off.candidates : 0.0;
        const double overhead_pct =
            cand_ns > 0.0 ? 100.0 * (2.0 * scope_ns) / cand_ns : 0.0;

        std::printf("\nobservability (%d-iteration delta walks, best of "
                    "%d windows):\n",
                    dlsa_iters, kRepeats);
        PrintRows(obs_rows, "obs/tracing_off");
        std::printf("  disabled scope: %.2f ns/scope -> %.3f%% of a "
                    "%.0f ns candidate (2 scopes); timeline share "
                    "(enabled) %.3f\n",
                    scope_ns, overhead_pct, cand_ns, timeline_share);
        bench::JsonSink::Instance().Add("sa_throughput/obs/"
                                        "disabled_overhead_pct",
                                        "percent", overhead_pct);
        bench::JsonSink::Instance().Add("sa_throughput/prof/"
                                        "timeline_share", "share",
                                        timeline_share);
    }

    const Row &delta_row = dlsa_rows.back();
    const Row &legacy = dlsa_rows.front();
    const Row &par = driver_rows.back();
    double single = legacy.PerSecond();
    std::printf("\nsummary: delta %.2fx, parallel driver %.2fx vs "
                "legacy single-thread\n",
                single > 0 ? delta_row.PerSecond() / single : 0.0,
                single > 0 ? par.PerSecond() / single : 0.0);
    bench::JsonSink::Instance().Flush();
    return 0;
}

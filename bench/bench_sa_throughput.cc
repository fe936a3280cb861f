/**
 * @file
 * SA hot-path throughput: candidates evaluated per second, the number
 * every search-stage speedup ultimately cashes out as. Tracks these
 * configurations of the DLSA inner loop —
 *
 *   legacy        mutate + EvaluateSchedule (the pre-refactor shape:
 *                 every candidate rebuilds all evaluation state)
 *   context-full  mutate + EvalContext::Evaluate (reused scratch,
 *                 allocation-free after warm-up)
 *   delta         mutate + EvalContext::EvaluateDelta (timeline resumed
 *                 from the earliest slot the mutation touched, run to
 *                 the end)
 *   driver KxN    RunDlsaStage on the SearchDriver with K chains on N
 *                 threads (aggregate candidates/s at equal per-chain
 *                 budget)
 *
 * plus the LFA loop (parse-dominated) as legacy / incremental
 * (group-memoized partial re-parse, full timeline per candidate), with cross-check passes asserting incremental parses
 * bit-identical to full parses and delta evaluations bit-identical to
 * full simulations. CI gates lfa/incremental >= 2x lfa/legacy and
 * dlsa/delta >= 4x dlsa/legacy.
 *
 * An observability section replays the incremental walk with the
 * SOMA_PROF_SCOPE hot-path hooks disabled (the default) and enabled
 * (what --trace/--stats turn on), and microbenches the cost of one
 * disabled scope. CI gates obs/disabled_overhead_pct — the estimated
 * per-candidate cost of the dormant instrumentation — at < 2%.
 *
 * Profiles: SOMA_BENCH_PROFILE=quick|default|full scales the budgets.
 *
 * Run: ./build/bench_sa_throughput [--json <path>]
 */
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

struct Row {
    std::string name;
    int candidates = 0;
    double seconds = 0.0;
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

/** Time @p walk (a callable returning one Row) kRepeats times, with
 *  identical work per repeat, and keep the fastest: a single short walk
 *  on a shared runner is noisy. */
template <typename WalkFn>
Row
BestOf(WalkFn &&walk)
{
    Row best = walk();
    for (int rep = 1; rep < kRepeats; ++rep) {
        Row row = walk();
        if (row.seconds < best.seconds) best = row;
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
    using bench::Profile;
    bench::InitBenchJson(&argc, argv);
    const Profile profile = bench::ProfileFromEnv();
    // Loop sizes come from the same budget table the SomaOptions
    // presets are built from (SomaBudgetsFor) — bench and facade
    // profiles cannot drift.
    const SomaProfileBudgets &budgets = SomaBudgetsFor(
        profile == Profile::kQuick  ? SearchProfile::kQuick
        : profile == Profile::kFull ? SearchProfile::kFull
                                    : SearchProfile::kDefault);
    const int dlsa_iters = budgets.bench_dlsa_iters;
    const int lfa_iters = budgets.bench_lfa_iters;
    const int stage_cap = budgets.bench_stage_iters;

    Graph graph = BuildResNet50(1);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator core_eval(graph, hw);
    const Ops total_ops = graph.TotalOps();

    // A fused multi-LG scheme with real prefetch headroom.
    LfaEncoding lfa = MakeInitialLfa(graph, hw, 64);
    {
        Rng seed_rng(3);
        LfaStageOptions seed_opts;
        seed_opts.beta = 5;
        seed_opts.max_iterations = 200;
        seed_opts.driver.chains = 1;
        seed_opts.driver.threads = 1;
        LfaStageResult seeded = RunLfaStage(graph, hw, core_eval,
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
                bench::ProfileName(profile));
    std::printf("workload=resnet50 b=1: %d tiles, %d DRAM tensors, "
                "%d LGs\n\n",
                parsed.NumTiles(), parsed.NumTensors(), parsed.num_lgs);

    // ----------------------------------------------------- DLSA loop
    // Each walk is about a millisecond at the quick profile: time every
    // row best-of-kRepeats, like the LFA rows.
    std::vector<Row> dlsa_rows;
    dlsa_rows.push_back(BestOf([&] {
        return DlsaWalk(
            "dlsa/legacy", parsed, initial, initial_cost, dlsa_iters,
            [&](const DlsaEncoding &d, const DlsaDelta &) {
                return EvaluateSchedule(graph, hw, parsed, d, hw.gbuf_bytes,
                                        total_ops)
                    .Cost();
            },
            [] {});
    }));

    EvalContext full_ctx;
    dlsa_rows.push_back(BestOf([&] {
        return DlsaWalk(
            "dlsa/context-full", parsed, initial, initial_cost, dlsa_iters,
            [&](const DlsaEncoding &d, const DlsaDelta &) {
                return full_ctx
                    .Evaluate(graph, hw, parsed, d, hw.gbuf_bytes,
                              total_ops)
                    .Cost();
            },
            [] {});
    }));

    // A delta walk of @p iters candidates through @p ctx, from the
    // committed initial state.
    auto delta_walk = [&](EvalContext &ctx, const std::string &name,
                          int iters) {
        ctx.Evaluate(graph, hw, parsed, initial, hw.gbuf_bytes, total_ops);
        ctx.Commit();
        return DlsaWalk(
            name, parsed, initial, initial_cost, iters,
            [&](const DlsaEncoding &d, const DlsaDelta &delta) {
                return ctx
                    .EvaluateDelta(graph, hw, parsed, d, delta,
                                   hw.gbuf_bytes, total_ops)
                    .Cost();
            },
            [&] { ctx.Commit(); });
    };
    EvalContext delta_ctx;
    dlsa_rows.push_back(BestOf(
        [&] { return delta_walk(delta_ctx, "dlsa/delta", dlsa_iters); }));
    std::printf("DLSA inner loop (%d iterations, best of %d):\n",
                dlsa_iters, kRepeats);
    PrintRows(dlsa_rows, "dlsa/legacy");

    // ------------------------------------------------------ LFA loop
    // Two shapes of the parse-dominated loop:
    //   legacy       rebuild everything per candidate (ParseLfa +
    //                EvaluateSchedule)
    //   incremental  group-memoized partial re-parse (the LFA-stage
    //                production path)
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
    // One LFA walk through @p ctx (a fresh context: cold group memo);
    // returns the number of candidates.
    auto lfa_context_walk = [&](EvalContext &ctx, const ParseOptions &popts,
                                int iters) {
        Rng rng(23);
        DlsaEncoding dlsa_scratch;
        LfaEncoding cur = lfa, cand;
        int candidates = 0;
        for (int i = 0; i < iters; ++i) {
            if (!MutateLfaEncoding(graph, cur, &cand, 64, rng)) continue;
            const ParsedSchedule &p = ctx.Parse(graph, cand, core_eval, popts);
            if (p.valid) {
                MakeDoubleBufferDlsaInto(p, &dlsa_scratch);
                ctx.Evaluate(graph, hw, p, dlsa_scratch, hw.gbuf_bytes,
                             total_ops);
            }
            ++candidates;
        }
        return candidates;
    };
    lfa_rows.push_back(BestOf([&] {
        Row row;
        row.name = "lfa/incremental";
        EvalContext ctx;
        const MonotonicTime t0 = MonotonicNow();
        row.candidates = lfa_context_walk(ctx, ParseOptions{}, lfa_iters);
        row.seconds = SecondsSince(t0);
        return row;
    }));
    std::printf("\nLFA inner loop (%d iterations, parse-dominated, best "
                "of %d):\n",
                lfa_iters, kRepeats);
    PrintRows(lfa_rows, "lfa/legacy");

    // The debug cross-checks: replay a slice of the LFA walk with every
    // incremental parse verified bit-identical against a from-scratch
    // parse (ParseLfaInto aborts on divergence), and a slice of the
    // DLSA delta walk with every delta evaluation verified
    // bit-identical against a full simulation (EvalContext's
    // cross_check mode aborts on divergence).
    {
        ParseOptions popts;
        popts.cross_check = true;
        EvalContext lfa_ctx;
        const int parses =
            lfa_context_walk(lfa_ctx, popts, std::min(lfa_iters, 100));
        EvalContext ctx;
        ctx.set_cross_check(true);
        delta_walk(ctx, "dlsa/cross_check", std::min(dlsa_iters, 1000));
        const auto &ds = ctx.delta_stats();
        std::printf("  cross-check: %d incremental parses bit-identical "
                    "to full parses, %llu delta evals bit-identical to "
                    "full simulations\n",
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
        DlsaStageOptions opts;
        opts.beta = 1000;
        opts.max_iterations = stage_cap;
        opts.driver.chains = chains;
        opts.driver.threads = hw_threads;
        Rng rng(31);
        Row row;
        row.name = "driver/" + std::to_string(chains) + "x" +
                   std::to_string(std::min(chains, hw_threads));
        const MonotonicTime t0 = MonotonicNow();
        DlsaStageResult res = RunDlsaStage(graph, hw, parsed, initial,
                                           hw.gbuf_bytes, opts, rng);
        row.seconds = SecondsSince(t0);
        row.candidates = res.stats.evaluated;
        driver_rows.push_back(row);
    }
    std::printf("\nSearchDriver DLSA stage (cap %d iters/chain, %d hw "
                "threads):\n",
                stage_cap, hw_threads);
    PrintRows(driver_rows, driver_rows.front().name);

    // ---------------------------- observability overhead (obs layer)
    // The delta walk crosses two SOMA_PROF_SCOPE sites per candidate
    // (eval.delta + eval.timeline). Replay it with the hooks
    // dormant (default) and recording (ProfEnableScope — what
    // --trace/--stats hold), then microbench one *disabled* scope to
    // estimate the cost instrumentation adds when nobody is looking.
    {
        auto incr_walk = [&](const std::string &name) {
            EvalContext ctx;
            return delta_walk(ctx, name, dlsa_iters);
        };
        std::vector<Row> obs_rows;
        obs_rows.push_back(incr_walk("obs/tracing_off"));
        const std::vector<obs::ProfEntry> before = obs::ProfSnapshot();
        double timeline_share = 0.0;
        {
            obs::ProfEnableScope hold;
            obs_rows.push_back(incr_walk("obs/tracing_on"));
            const std::vector<obs::ProfEntry> after = obs::ProfSnapshot();
            const std::uint64_t timeline_nanos =
                obs::ProfNanos(after, "eval.timeline") -
                obs::ProfNanos(before, "eval.timeline");
            const double wall = obs_rows.back().seconds;
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

        std::printf("\nobservability (delta walk, %d iterations):"
                    "\n",
                    dlsa_iters);
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

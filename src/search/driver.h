/**
 * @file
 * SearchDriver: K independently seeded annealing chains on a thread
 * pool, with periodic best-state exchange and a final reduction.
 *
 * The paper runs its SA budgets on a 192-core server; the seed
 * implementation annealed a single chain on one thread. The driver
 * restores the paper's throughput model: every exploration stage
 * (RunLfaStage, RunDlsaStage, the Cocco baseline) hands its mutate /
 * evaluate closures to RunSearchDriver, which anneals `chains`
 * independent walks in `exchange_rounds` temperature windows and
 * migrates the globally best state into lagging chains between windows.
 *
 * Determinism: each chain draws from its own Rng stream derived from
 * the driver seed via SplitMix64, chains only interact at the
 * deterministic exchange barriers, and ties in the final reduction
 * break toward the lowest chain id — so the result depends on the seed
 * and chain count but never on the thread count or scheduling.
 *
 * Concurrency model: the driver is deliberately lock-free. Workers
 * claim whole chains from one atomic counter (RunOnWorkers) and touch
 * only pool[i] state between the exchange barriers, which run on the
 * calling thread after every worker has joined — so there is no
 * mutex-guarded state here and nothing for the thread-safety analysis
 * to annotate. Each chain owns its EvalContext (parse scratch and
 * group memo included); the shared CoreArrayEvaluator is stateless.
 */
#ifndef SOMA_SEARCH_DRIVER_H
#define SOMA_SEARCH_DRIVER_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "obs/trace.h"
#include "search/sa.h"

namespace soma {

/** Parallel-search hyperparameters shared by all exploration stages. */
struct SearchDriverOptions {
    /** Independently seeded annealing chains (K). Each chain anneals
     *  the full SaOptions::iterations budget; raising K widens the
     *  exploration like the paper's multi-seed server runs. */
    int chains = 2;
    /** Worker threads; 0 = std::thread::hardware_concurrency(). The
     *  thread count never changes results, only wall-clock time. */
    int threads = 0;
    /** Temperature windows per run; chains exchange their best states
     *  at window boundaries (no exchange happens with 1 window). */
    int exchange_rounds = 4;
    /**
     * Cooperative stop, shared by every stage of a request: the driver
     * copies both fields into the SaOptions of each annealing window
     * (RunSaWindow polls them every cancel_check_interval iterations)
     * and skips remaining exchange rounds once either fires. The facade
     * copies `cancel` from ScheduleRequest::cancel and derives
     * `deadline` from ScheduleRequest::deadline_ms. Defaults mean "never stop
     * early" and leave results bit-identical to unconstrained runs.
     */
    const std::atomic<bool> *cancel = nullptr;
    std::chrono::steady_clock::time_point deadline{};
    /**
     * Optional span tracer (obs/trace.h). When set, every chain's
     * annealing window records one "sa.window" span (args: chain,
     * round, iteration range). Observational only: spans read walk
     * state, never steer it, so attaching a tracer leaves results
     * bit-identical — like `threads`, it is excluded from request
     * fingerprints. Propagated from SomaOptions.driver into both
     * stages by PropagateSomaOptions.
     */
    obs::Tracer *trace = nullptr;
};

/** True once @p opts's cancel flag is set or its deadline has passed.
 *  The between-stage twin of SaStopRequested (sa.h). */
inline bool
DriverStopRequested(const SearchDriverOptions &opts)
{
    return StopRequested(opts.cancel, opts.deadline);
}

/** Effective worker count for @p opts (resolves threads == 0). */
int ResolveDriverThreads(const SearchDriverOptions &opts);

/** Per-chain seed for chain @p chain of a driver run seeded with
 *  @p base (SplitMix64 stream; decorrelated even for adjacent bases). */
std::uint64_t DeriveChainSeed(std::uint64_t base, int chain);

/**
 * Run @p tasks independent jobs on up to @p threads workers. Jobs are
 * claimed from an atomic counter; fn(i) must only touch job-i state.
 * Runs inline when threads <= 1 or tasks == 1.
 */
void RunOnWorkers(int threads, int tasks,
                  const std::function<void(int)> &fn);

/**
 * The per-chain search environment. Built once per chain by the
 * stage's factory so each chain owns its scratch state (EvalContext,
 * mutation delta slot, ...).
 */
template <typename State>
struct ChainEnv {
    /** Propose a neighbour of the current state (false: no move). */
    std::function<bool(const State &, State *, Rng &)> mutate;
    /** Cost of a candidate (+inf: invalid). */
    std::function<double(const State &)> evaluate;
    /** Optional: fired right after a candidate is accepted (promotes
     *  incremental-evaluation scratch: EvalContext::Commit). */
    std::function<void(const State &)> on_accept;
    /** Optional: fired when the chain's current state is replaced from
     *  outside the chain's own walk — at chain start and when the
     *  exchange migrates a foreign best state in. Re-establishes the
     *  incremental base for the adopted state. */
    std::function<void(const State &, double)> on_adopt;
    /** Optional: called with the chain's "sa.window" span after each
     *  window, so the stage can attach evaluation telemetry (delta
     *  evaluation and fallback counts, resume points) to the trace. */
    std::function<void(obs::SpanScope &)> annotate;
};

/** Result of a driver run. */
template <typename State>
struct DriverResult {
    State state;
    double cost = std::numeric_limits<double>::infinity();
    int winner_chain = 0;
    SaStats stats;                     ///< counters summed over chains
    std::vector<SaStats> chain_stats;  ///< per-chain counters
};

/**
 * Anneal @p opts.chains chains from @p initial / @p initial_cost.
 * @p make_env is called once per chain, serially, before any worker
 * starts; the returned closures are then only invoked from that
 * chain's worker.
 */
template <typename State>
DriverResult<State>
RunSearchDriver(const State &initial, double initial_cost,
                const std::function<ChainEnv<State>(int)> &make_env,
                const SaOptions &sa, const SearchDriverOptions &opts,
                std::uint64_t seed)
{
    const int chains = std::max(1, opts.chains);
    const int threads = std::min(ResolveDriverThreads(opts), chains);

    // Windows inherit the driver-level stop request (unless the stage
    // already wired its own flag into the SaOptions directly).
    SaOptions sa_eff = sa;
    if (!sa_eff.cancel) sa_eff.cancel = opts.cancel;
    if (sa_eff.deadline.time_since_epoch().count() == 0)
        sa_eff.deadline = opts.deadline;

    struct Chain {
        State current, best;
        double current_cost, best_cost;
        Rng rng;
        SaStats stats;
        ChainEnv<State> env;
        Chain(const State &s, double c, std::uint64_t chain_seed)
            : current(s), best(s), current_cost(c), best_cost(c),
              rng(chain_seed)
        {
        }
    };

    std::vector<Chain> pool;
    pool.reserve(chains);
    for (int c = 0; c < chains; ++c) {
        pool.emplace_back(initial, initial_cost, DeriveChainSeed(seed, c));
        pool.back().env = make_env(c);
        pool.back().stats.initial_cost = initial_cost;
    }

    const int rounds =
        std::max(1, std::min(opts.exchange_rounds, sa.iterations));
    for (int r = 0; r < rounds; ++r) {
        const int begin = static_cast<int>(
            static_cast<std::int64_t>(sa.iterations) * r / rounds);
        const int end = static_cast<int>(
            static_cast<std::int64_t>(sa.iterations) * (r + 1) / rounds);
        RunOnWorkers(threads, chains, [&](int c) {
            Chain &ch = pool[c];
            obs::SpanScope span(opts.trace, "sa.window");
            span.Arg("chain", static_cast<std::int64_t>(c));
            span.Arg("round", static_cast<std::int64_t>(r));
            span.Arg("begin", static_cast<std::int64_t>(begin));
            span.Arg("end", static_cast<std::int64_t>(end));
            if (r == 0 && ch.env.on_adopt)
                ch.env.on_adopt(ch.current, ch.current_cost);
            RunSaWindow<State>(&ch.current, &ch.current_cost, &ch.best,
                               &ch.best_cost, ch.env.mutate, ch.env.evaluate,
                               sa_eff, ch.rng, begin, end, &ch.stats,
                               ch.env.on_accept);
            span.Arg("evaluated",
                     static_cast<std::int64_t>(ch.stats.evaluated));
            span.Arg("best_cost", ch.best_cost);
            if (ch.env.annotate) ch.env.annotate(span);
        });
        if (r + 1 >= rounds || SaStopRequested(sa_eff)) break;
        // Deterministic exchange: migrate the global best-so-far into
        // every chain whose walk has fallen behind it.
        int w = 0;
        for (int c = 1; c < chains; ++c)
            if (pool[c].best_cost < pool[w].best_cost) w = c;
        for (int c = 0; c < chains; ++c) {
            if (c == w || pool[c].current_cost <= pool[w].best_cost)
                continue;
            pool[c].current = pool[w].best;
            pool[c].current_cost = pool[w].best_cost;
            if (pool[c].env.on_adopt)
                pool[c].env.on_adopt(pool[c].current, pool[c].current_cost);
        }
    }

    DriverResult<State> result;
    int w = 0;
    for (int c = 1; c < chains; ++c)
        if (pool[c].best_cost < pool[w].best_cost) w = c;
    result.state = std::move(pool[w].best);
    result.cost = pool[w].best_cost;
    result.winner_chain = w;
    result.chain_stats.reserve(chains);
    for (const Chain &ch : pool) result.chain_stats.push_back(ch.stats);
    for (const Chain &ch : pool) AccumulateSaStats(&result.stats, ch.stats);
    result.stats.initial_cost = initial_cost;
    result.stats.best_cost = result.cost;
    return result;
}

/**
 * The stage-side protocol shared by RunLfaStage, RunDlsaStage and the
 * Cocco baseline: draw the driver seed from the stage Rng (keeping the
 * pipeline reproducible from one seed), anneal, and adopt the driver's
 * best state only if it beats the serially seeded one in
 * @p state / @p cost. Returns the aggregate chain statistics.
 */
template <typename State>
SaStats
RunDriverAndAdopt(const std::function<ChainEnv<State>(int)> &make_env,
                  const SaOptions &sa, const SearchDriverOptions &opts,
                  Rng &rng, State *state, double *cost)
{
    const std::uint64_t driver_seed = rng.engine()();
    DriverResult<State> dr = RunSearchDriver<State>(*state, *cost, make_env,
                                                    sa, opts, driver_seed);
    if (dr.cost < *cost) {
        *state = std::move(dr.state);
        *cost = dr.cost;
    }
    return dr.stats;
}

}  // namespace soma

#endif  // SOMA_SEARCH_DRIVER_H

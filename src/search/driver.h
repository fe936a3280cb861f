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
 * independent walks in kExchangeRounds temperature windows
 * (RunSaWindow) and migrates the globally best state into lagging
 * chains between windows.
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

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "search/sa.h"

namespace soma {

/** Temperature windows per driver run; chains exchange their best
 *  states at window boundaries. */
constexpr int kExchangeRounds = 4;

/** Iterations between two polls of the stop request inside a window. */
constexpr int kStopCheckInterval = 64;

/** Parallel-search settings shared by all exploration stages. */
struct SearchDriverOptions {
    /** Independently seeded annealing chains (K). Each chain anneals
     *  the stage's full iteration budget; raising K widens the
     *  exploration like the paper's multi-seed server runs. */
    int chains = 2;
    /** Worker threads; 0 = std::thread::hardware_concurrency(). The
     *  thread count never changes results, only wall-clock time. */
    int threads = 0;
    /**
     * The one cooperative stop request of a search: RunSaWindow polls
     * it every kStopCheckInterval iterations, the driver skips its
     * remaining exchange rounds and the buffer allocator its remaining
     * outer iterations once either fires. The facade copies `cancel`
     * from ScheduleRequest::cancel and `deadline` from the request's
     * resolved deadline_ms cutoff. Defaults mean "never stop early"
     * and leave results bit-identical to unconstrained runs.
     */
    const std::atomic<bool> *cancel = nullptr;
    /** Wall-clock cutoff; time_point{} (the default) means none. */
    std::chrono::steady_clock::time_point deadline{};
    /**
     * Optional span tracer (obs/trace.h). When set, every chain's
     * annealing window records one "sa.window" span (args: chain,
     * round, iteration range), and the stages and the buffer allocator
     * record theirs. Observational only: spans read walk state, never
     * steer it, so attaching a tracer leaves results bit-identical —
     * like `threads`, it is excluded from request fingerprints.
     */
    obs::Tracer *trace = nullptr;
};

/** True once @p opts's cancel flag is set or its deadline has passed. */
inline bool
StopRequested(const SearchDriverOptions &opts)
{
    if (opts.cancel && opts.cancel->load(std::memory_order_relaxed))
        return true;
    return opts.deadline.time_since_epoch().count() != 0 &&
           obs::MonotonicNow() >= opts.deadline;
}

/** Effective worker count for @p opts (resolves threads == 0). */
int ResolveDriverThreads(const SearchDriverOptions &opts);

/** Per-chain seed for chain @p chain of a driver run seeded with
 *  @p base (SplitMix64 stream; decorrelated even for adjacent bases). */
std::uint64_t DeriveChainSeed(std::uint64_t base, int chain);

/**
 * Run @p tasks independent jobs on up to @p threads workers, and never
 * on more than std::thread::hardware_concurrency(). Jobs are claimed
 * from an atomic counter; fn(i) must only touch job-i state. Runs
 * inline when that leaves one worker.
 */
void RunOnWorkers(int threads, int tasks,
                  const std::function<void(int)> &fn);

/**
 * Anneal iterations [begin, end) of an @p iterations-long schedule.
 *
 * @p current / @p current_cost is the walking state, @p best /
 * @p best_cost the best state ever seen; both are updated in place so a
 * later window (or another chain, via the driver's exchange) can
 * continue the walk. @p mutate proposes a neighbour (returning false
 * to signal "no move possible"); @p evaluate returns the cost (+inf for
 * invalid schemes, which are then rejected unless the current state is
 * itself invalid). @p on_accept, when set, fires right after a candidate
 * is accepted — the hook incremental evaluation contexts use to promote
 * the candidate's scratch state to the new base (EvalContext::Commit).
 * Counters are accumulated into @p stats. Once @p stop requests a stop,
 * the window returns early with only the iterations actually annealed
 * accounted for, and current/best reflect every one of them, so a
 * stopped search still yields its best-so-far. Without a cancel flag
 * or deadline no check runs.
 */
template <typename State>
void
RunSaWindow(State *current, double *current_cost, State *best,
            double *best_cost,
            const std::function<bool(const State &, State *, Rng &)> &mutate,
            const std::function<double(const State &)> &evaluate,
            int iterations, const SearchDriverOptions &stop, Rng &rng,
            int begin, int end, SaStats *stats,
            const std::function<void(const State &)> &on_accept = nullptr)
{
    const int greedy_from =
        iterations - static_cast<int>(iterations * kSaGreedyTail);
    const bool may_stop = stop.cancel != nullptr ||
                          stop.deadline.time_since_epoch().count() != 0;
    int until_check = kStopCheckInterval;
    State candidate;  // hoisted: reuses its capacity across iterations
    for (int n = begin; n < end; ++n) {
        if (may_stop && --until_check <= 0) {
            until_check = kStopCheckInterval;
            if (StopRequested(stop)) return;
        }
        ++stats->iterations;
        if (!mutate(*current, &candidate, rng)) {
            ++stats->no_move;
            continue;
        }
        double cand_cost = evaluate(candidate);
        ++stats->evaluated;
        double temp = SaTemperature(iterations, n);
        bool greedy = n >= greedy_from;
        if (SaAccept(*current_cost, cand_cost, temp, greedy, rng)) {
            std::swap(*current, candidate);
            *current_cost = cand_cost;
            ++stats->accepted;
            if (on_accept) on_accept(*current);
            if (*current_cost < *best_cost) {
                *best = *current;
                *best_cost = *current_cost;
                ++stats->improved;
            }
        } else {
            ++stats->rejected;
        }
    }
}

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

/**
 * The costs one annealing chain has already priced, for a stage whose
 * cost is a pure function of the candidate: the LFA stage and the
 * Cocco baseline (DESIGN.md "Chain cost memo"). SetKey flattens the
 * candidate into one reused key buffer, each part prefixed by its
 * length; Price looks the key up in kSlots direct-mapped slots picked
 * by FNV-1a. Only a full key match is a hit; a miss evaluates and
 * takes the slot. One memo per chain per driver run, never shared.
 */
class ChainCostMemo {
  public:
    static constexpr std::size_t kSlots = 256;

    template <typename... Parts>
    void SetKey(const Parts &...parts)
    {
        key_.clear();
        (Append(parts), ...);
    }

    /** The stored cost on a hit, else @p eval(). With @p verify on, a
     *  hit is evaluated again and aborts unless the costs are bitwise
     *  equal. */
    template <typename Eval>
    double Price(bool verify, const Eval &eval)
    {
        const std::size_t bytes = key_.size() * sizeof(std::int32_t);
        Slot &slot = slots_[Fnv1a64(key_.data(), bytes) % kSlots];
        // An empty slot never matches: every key holds a length prefix.
        if (slot.key != key_) {
            slot.cost = eval();
            slot.key = key_;
            return slot.cost;
        }
        ++hits_;
        const double again = verify ? eval() : slot.cost;
        if (std::memcmp(&again, &slot.cost, sizeof again) != 0) {
            SOMA_ERROR << "chain cost memo hit " << slot.cost
                       << " != re-evaluated cost " << again;
            std::abort();
        }
        return slot.cost;
    }

    std::int64_t hits() const { return hits_; }

  private:
    // Lengths are bounded by the layer count, an int.
    void Append(const std::vector<std::int32_t> &part)
    {
        key_.push_back(static_cast<std::int32_t>(part.size()));
        key_.insert(key_.end(), part.begin(), part.end());
    }

    struct Slot {
        std::vector<std::int32_t> key;
        double cost = 0.0;
    };
    std::vector<std::int32_t> key_;
    std::vector<Slot> slots_ = std::vector<Slot>(kSlots);
    std::int64_t hits_ = 0;
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
 * Anneal @p opts.chains chains of @p iterations each from @p initial /
 * @p initial_cost. @p make_env is called once per chain, serially,
 * before any worker starts; the returned closures are then only
 * invoked from that chain's worker.
 */
template <typename State>
DriverResult<State>
RunSearchDriver(const State &initial, double initial_cost,
                const std::function<ChainEnv<State>(int)> &make_env,
                int iterations, const SearchDriverOptions &opts,
                std::uint64_t seed)
{
    const int chains = std::max(1, opts.chains);
    const int threads = std::min(ResolveDriverThreads(opts), chains);

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

    const int rounds = std::max(1, std::min(kExchangeRounds, iterations));
    for (int r = 0; r < rounds; ++r) {
        const int begin = static_cast<int>(
            static_cast<std::int64_t>(iterations) * r / rounds);
        const int end = static_cast<int>(
            static_cast<std::int64_t>(iterations) * (r + 1) / rounds);
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
                               iterations, opts, ch.rng, begin, end,
                               &ch.stats, ch.env.on_accept);
            span.Arg("evaluated",
                     static_cast<std::int64_t>(ch.stats.evaluated));
            span.Arg("best_cost", ch.best_cost);
            if (ch.env.annotate) ch.env.annotate(span);
        });
        if (r + 1 >= rounds || StopRequested(opts)) break;
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
                  int iterations, const SearchDriverOptions &opts,
                  Rng &rng, State *state, double *cost)
{
    const std::uint64_t driver_seed = rng.engine()();
    DriverResult<State> dr = RunSearchDriver<State>(
        *state, *cost, make_env, iterations, opts, driver_seed);
    if (dr.cost < *cost) {
        *state = std::move(dr.state);
        *cost = dr.cost;
    }
    return dr.stats;
}

}  // namespace soma

#endif  // SOMA_SEARCH_DRIVER_H

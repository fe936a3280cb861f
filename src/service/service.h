/**
 * @file
 * SchedulerService — the caching, coalescing serving layer wrapped
 * around soma::Scheduler for repeated traffic (DSE sweeps, a fixed
 * model zoo served many times). Three mechanisms stack on the facade:
 *
 *  - Result cache: requests are pure functions of their
 *    result-affecting fields, so the service memoizes serialized
 *    results by ScheduleRequest::Fingerprint() in an LRU (optionally
 *    persisted to disk, one JSON file per fingerprint, written via
 *    temp-file + atomic rename so concurrent sweep shards never
 *    publish a torn entry). A hit returns the exact bytes a cold run
 *    produced — the cache-determinism contract `cached result ==
 *    recomputed result, byte for byte`.
 *  - In-flight coalescing: N concurrent Schedule() calls with one
 *    fingerprint run one search; the leader fans its serialized result
 *    out to every waiting sibling. Waiters keep honoring their own
 *    QoS: a sibling whose cancel flag trips or whose deadline_ms
 *    passes while pending gives up with the matching status instead
 *    of blocking on the leader, and a leader that stopped on its own
 *    cancel flag or deadline answers no sibling — each re-enters the
 *    lookup under its own flag and deadline.
 *  - Graph cache: one entry per (model, batch) holds the built graph
 *    (GraphCache), so a sweep over one model builds it once. Each
 *    search keeps its own parse memos; nothing but the immutable graph
 *    is shared across requests.
 *
 * Memory-timing backends and the caches: memory_model is serialized,
 * so Fingerprint() separates result-cache entries per backend with no
 * service-layer changes, and the graph is backend-independent.
 *
 * What is NOT cached: inline-graph requests (their fingerprint only
 * covers the graph's name), failed results (errors are not pure — a
 * registry entry may be added later, and the next request sees it),
 * and deadline-truncated results (they depend on wall-clock,
 * violating the determinism contract).
 *
 * Clock discipline: a request's deadline_ms anchors once, at service
 * entry, on obs::MonotonicNow(); the coalesced waiter's poll and the
 * facade's search loops compare against that one instant, so a
 * system-time jump can never truncate a search.
 *
 * Results served from the cache (and coalesced siblings) are
 * deserialized from the stored text: every serialized field matches
 * the cold run bit-for-bit, but the in-process payload
 * (graph/encodings) stays empty and on_progress does not fire.
 */
#ifndef SOMA_SERVICE_SERVICE_H
#define SOMA_SERVICE_SERVICE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "api/scheduler.h"
#include "common/thread_annotations.h"
#include "service/graph_cache.h"
#include "service/result_cache.h"

namespace soma {

namespace obs {
class MetricsRegistry;
}

struct ServiceOptions {
    /** Result-cache sizing/persistence. An empty cache_dir keeps the
     *  cache purely in-memory. */
    std::size_t result_cache_capacity = 256;
    std::string cache_dir;
};

/** Service-level counters plus the embedded cache stats. A stats()
 *  snapshot of the service's internal atomic counters — `somac sweep
 *  --stats` serializes it through ExportTo(). */
struct ServiceStats {
    std::uint64_t requests = 0;     ///< Schedule() calls
    /** Joins of an in-flight sibling. A waiter whose leader stopped on
     *  its own cancel flag or deadline re-enters the lookup, so it may
     *  count here more than once. */
    std::uint64_t coalesced = 0;
    std::uint64_t searches = 0;     ///< pipelines actually executed
    std::uint64_t uncacheable = 0;  ///< inline-graph bypasses
    std::uint64_t errors = 0;       ///< executed pipelines with ok=false
    ResultCache::Stats result_cache;
    GraphCache::Stats graph_cache;
    /** Always zero: the cross-request tiling cache these counted is
     *  gone. Kept only because perfbench/layers.cc still reads them
     *  (`service.warm_tiling_hit_ratio`); the next benchmark PR drops
     *  that metric, then these fields. Not exported by ExportTo(). */
    struct {
        std::uint64_t tiling_hits = 0;
        std::uint64_t tiling_misses = 0;
    } warm_state;

    /**
     * Export this snapshot into @p registry as absolute-value counters
     * under flat dotted names ("service.requests",
     * "service.result_cache.hits", ...). The registry's canonical dump
     * is the `--stats` schema shared by somac run/sweep/fingerprint.
     */
    void ExportTo(obs::MetricsRegistry &registry) const;
};

class SchedulerService {
  public:
    SchedulerService() : SchedulerService(ServiceOptions{}) {}
    explicit SchedulerService(const ServiceOptions &options);

    SchedulerService(const SchedulerService &) = delete;
    SchedulerService &operator=(const SchedulerService &) = delete;

    /** The wrapped facade — configure registries through it. */
    Scheduler &scheduler() { return scheduler_; }

    /**
     * Serve @p request: result cache, then in-flight coalescing, then
     * one real pipeline run over the graph cache's graph.
     * Thread-safe; concurrent callers with the same fingerprint share
     * one search. When @p result_json is given it receives the
     * request's serialized result text — for cached and coalesced
     * requests these are the cold run's exact bytes.
     */
    ScheduleResult Schedule(const ScheduleRequest &request,
                            std::string *result_json = nullptr)
        SOMA_EXCLUDES(mutex_);

    ServiceStats stats() const;
    ResultCache &result_cache() { return result_cache_; }
    GraphCache &graph_cache() { return graph_cache_; }

  private:
    /** One coalesced in-flight search. `done`/`text` are protected by
     *  the *service's* mutex_ (waiters sleep on `cv` holding it) — a
     *  cross-object contract Clang's analysis cannot express on these
     *  members, so the guarantee is enforced by review plus the
     *  annotated Schedule()/RunAndPublish() paths that do all access. */
    struct Inflight {
        bool done = false;
        /** The leader stopped on its own cancel flag or deadline: its
         *  text answers no waiter, each re-enters the lookup. */
        bool caller_abort = false;
        std::string text;
        CondVar cv;
    };
    /**
     * The mutable counters behind ServiceStats. Atomics, not
     * mutex-guarded fields: concurrent Schedule() calls bump them on
     * paths that never take mutex_ (the unlocked result-cache fast
     * path, the inline-graph bypass), so plain integers would tear
     * under TSan — and did, before PR 5's correctness pass.
     */
    struct Counters {
        std::atomic<std::uint64_t> requests{0};
        std::atomic<std::uint64_t> coalesced{0};
        std::atomic<std::uint64_t> searches{0};
        std::atomic<std::uint64_t> uncacheable{0};
        std::atomic<std::uint64_t> errors{0};
    };

    /** Run @p request as the leader of @p flight (its deadline_tp
     *  already anchored) and publish the outcome to the waiters. */
    ScheduleResult RunAndPublish(ScheduleRequest request,
                                 std::uint64_t fingerprint,
                                 const std::shared_ptr<Inflight> &flight,
                                 std::string *result_json)
        SOMA_EXCLUDES(mutex_);

    /* The wrapped facade is safe to call concurrently once its
     * registries are configured, and the two caches synchronize
     * internally (each owns its own lock); mutex_ below only covers
     * the coalescing map. */
    Scheduler scheduler_;        // somalint: allow(guarded-field)
    ResultCache result_cache_;   // somalint: allow(guarded-field)
    GraphCache graph_cache_;     // somalint: allow(guarded-field)

    /** Lock order: mutex_ may be held while calling into the result
     *  cache (the under-registration recheck) — so mutex_ comes BEFORE
     *  every cache-internal lock, and the caches never call back into
     *  the service. */
    mutable Mutex mutex_;  ///< the coalescing map
    std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>> inflight_
        SOMA_GUARDED_BY(mutex_);
    Counters counters_;  // somalint: allow(guarded-field) all-atomic struct
};

}  // namespace soma

#endif  // SOMA_SERVICE_SERVICE_H

#include "service/service.h"

#include <chrono>
#include <iterator>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace soma {

namespace {

/** Reconstruct a result from cached text. False only on corrupt text
 *  (never for texts this process serialized). */
bool
TryDeserialize(const std::string &text, ScheduleResult *out,
               std::string *err)
{
    Json json;
    if (!Json::Parse(text, &json, err)) return false;
    return ScheduleResult::FromJson(json, out, err);
}

/** An aborted-while-waiting result with the usual request echo. */
ScheduleResult
AbortedResult(const ScheduleRequest &request, std::string error,
              bool deadline_expired)
{
    ScheduleResult result = EchoRequest(request);
    result.error = std::move(error);
    result.deadline_expired = deadline_expired;
    return result;
}

}  // namespace

void
ServiceStats::ExportTo(obs::MetricsRegistry &registry) const
{
    auto set = [&registry](const char *name, std::uint64_t v) {
        registry.GetCounter(name).Set(v);
    };
    set("service.requests", requests);
    set("service.coalesced", coalesced);
    set("service.searches", searches);
    set("service.uncacheable", uncacheable);
    set("service.errors", errors);
    set("service.negative_hits", negative_hits);
    set("service.result_cache.hits", result_cache.hits);
    set("service.result_cache.misses", result_cache.misses);
    set("service.result_cache.evictions", result_cache.evictions);
    set("service.result_cache.insertions", result_cache.insertions);
    set("service.result_cache.disk_hits", result_cache.disk_hits);
    set("service.result_cache.disk_writes", result_cache.disk_writes);
    set("service.result_cache.version_mismatches",
        result_cache.version_mismatches);
    set("service.graph_cache.hits", graph_cache.hits);
    set("service.graph_cache.misses", graph_cache.misses);
    set("service.graph_cache.evictions", graph_cache.evictions);
    set("service.warm_state.acquires", warm_state.acquires);
    set("service.warm_state.hits", warm_state.hits);
    set("service.warm_state.misses", warm_state.misses);
    set("service.warm_state.evictions", warm_state.evictions);
    set("service.warm_state.tiling_hits", warm_state.tiling_hits);
    set("service.warm_state.tiling_misses", warm_state.tiling_misses);
    set("service.warm_state.tiling_remaps", warm_state.tiling_remaps);
    set("service.warm_state.tiling_entries", warm_state.tiling_entries);
    set("service.warm_state.approx_bytes", warm_state.approx_bytes);
}

SchedulerService::SchedulerService(const ServiceOptions &options)
    : error_ttl_ms_(options.error_ttl_ms),
      now_fn_(options.now_fn),
      result_cache_(ResultCache::Options{options.result_cache_capacity,
                                         options.cache_dir,
                                         kResultCacheSchemaVersion}),
      warm_state_cache_(
          WarmStateCache::Options{options.warm_state_capacity})
{
}

std::chrono::steady_clock::time_point
SchedulerService::Now() const
{
    return now_fn_ ? now_fn_() : obs::MonotonicNow();
}

const SchedulerService::NegativeEntry *
SchedulerService::FindNegativeLocked(std::uint64_t fingerprint)
{
    auto it = negative_.find(fingerprint);
    if (it == negative_.end()) return nullptr;
    if (Now() >= it->second.expires) {
        negative_.erase(it);
        return nullptr;
    }
    return &it->second;
}

ScheduleResult
SchedulerService::Schedule(const ScheduleRequest &request,
                           std::string *result_json)
{
    counters_.requests.fetch_add(1, std::memory_order_relaxed);

    // Inline graphs have no faithful fingerprint (only their name
    // serializes); run them straight through the facade.
    if (request.graph) {
        ScheduleResult result = scheduler_.Schedule(request);
        counters_.uncacheable.fetch_add(1, std::memory_order_relaxed);
        counters_.searches.fetch_add(1, std::memory_order_relaxed);
        if (!result.ok)
            counters_.errors.fetch_add(1, std::memory_order_relaxed);
        if (result_json) *result_json = result.ToJson().Dump(2);
        return result;
    }

    const std::uint64_t fingerprint = request.Fingerprint();
    // Even a coalesced waiter honors its own QoS: the deadline anchors
    // here on the monotonic clock, and the wait loop below polls it
    // plus the cancel flag.
    const auto wait_deadline =
        request.deadline_ms > 0
            ? Now() + std::chrono::milliseconds(request.deadline_ms)
            : std::chrono::steady_clock::time_point{};

    auto serve_cached = [&](std::string text,
                            ScheduleResult *out) -> bool {
        std::string err;
        if (!TryDeserialize(text, out, &err)) {
            SOMA_WARN << "result cache: corrupt entry "
                      << HexU64(fingerprint) << " (" << err
                      << "); recomputing";
            return false;
        }
        if (result_json) *result_json = std::move(text);
        return true;
    };

    // Fast path outside the service lock: the cache has its own mutex
    // and a lookup may touch disk, so warm traffic never serializes
    // behind mutex_.
    std::string text;
    ScheduleResult cached;
    {
        obs::SpanScope probe_span(request.trace, "service.cache_probe");
        const bool hit = result_cache_.Get(fingerprint, &text);
        probe_span.Arg("hit", static_cast<std::int64_t>(hit ? 1 : 0));
        if (hit && serve_cached(std::move(text), &cached)) return cached;
    }

    std::shared_ptr<Inflight> flight;
    {
        MutexLock lock(mutex_);
        // Negative memo: a hot failing fingerprint replays its recent
        // error instead of re-running the whole search (TTL-bounded so
        // healed registries recover quickly).
        if (const NegativeEntry *neg = FindNegativeLocked(fingerprint)) {
            counters_.negative_hits.fetch_add(1,
                                              std::memory_order_relaxed);
            std::string neg_text = neg->text;
            lock.Unlock();
            ScheduleResult result;
            std::string err;
            if (!TryDeserialize(neg_text, &result, &err)) {
                result = ScheduleResult();
                result.error = "negative memo corrupt: " + err;
            }
            if (result_json) *result_json = std::move(neg_text);
            return result;
        }
        auto it = inflight_.find(fingerprint);
        if (it == inflight_.end()) {
            // A leader may have published between the unlocked lookup
            // and here; recheck under the registration lock (a memory
            // hit in that race — no disk read for absent entries
            // beyond one failed open).
            if (result_cache_.Get(fingerprint, &text)) {
                lock.Unlock();
                if (serve_cached(std::move(text), &cached)) return cached;
                lock.Lock();
                it = inflight_.find(fingerprint);  // re-race, rare
            }
        }
        if (it == inflight_.end()) {
            flight = std::make_shared<Inflight>();
            inflight_[fingerprint] = flight;
        } else {
            // Coalesce: pend on the leader, but keep honoring this
            // request's own cancel flag and deadline while waiting.
            flight = it->second;
            counters_.coalesced.fetch_add(1, std::memory_order_relaxed);
            obs::SpanScope wait_span(request.trace,
                                     "service.coalesce_wait");
            for (;;) {
                if (flight->done) break;
                if (request.cancel &&
                    request.cancel->load(std::memory_order_relaxed)) {
                    return AbortedResult(request, "cancelled", false);
                }
                if (wait_deadline.time_since_epoch().count() != 0 &&
                    Now() >= wait_deadline) {
                    return AbortedResult(
                        request,
                        "deadline expired (" +
                            std::to_string(request.deadline_ms) +
                            " ms) while waiting for the coalesced "
                            "result",
                        /*deadline_expired=*/true);
                }
                flight->cv.WaitFor(mutex_,
                                   std::chrono::milliseconds(10));
            }
            text = flight->text;
            lock.Unlock();
            ScheduleResult result;
            std::string err;
            if (!TryDeserialize(text, &result, &err)) {
                result = ScheduleResult();
                result.error = "coalesced result corrupt: " + err;
            }
            if (result_json) *result_json = std::move(text);
            return result;
        }
    }
    return RunAndPublish(request, fingerprint, flight, result_json);
}

ScheduleResult
SchedulerService::RunAndPublish(const ScheduleRequest &request,
                                std::uint64_t fingerprint,
                                const std::shared_ptr<Inflight> &flight,
                                std::string *result_json)
{
    ScheduleRequest req = request;
    std::string err;
    std::shared_ptr<const Graph> graph =
        graph_cache_.Get(req.model, req.batch, scheduler_.models(), &err);
    // Unknown models fall through graph-less so the facade produces its
    // canonical error (with the registered-name candidates).
    if (graph) {
        req.graph = std::move(graph);
        // Warm-start the search from every earlier request over this
        // graph: tilings are hardware-free, so a DSE sweep shares one
        // cache across its whole hardware axis.
        req.warm_state = warm_state_cache_.Acquire(
            Fnv1a64(req.model + '\n' + std::to_string(req.batch)));
    }

    counters_.searches.fetch_add(1, std::memory_order_relaxed);
    ScheduleResult result;
    {
        obs::SpanScope search_span(request.trace, "service.search");
        result = scheduler_.Schedule(req);
        search_span.Arg("ok", static_cast<std::int64_t>(result.ok ? 1
                                                                  : 0));
    }
    std::string text;
    {
        obs::SpanScope serialize_span(request.trace, "service.serialize");
        text = result.ToJson().Dump(2);
        serialize_span.Arg("bytes",
                           static_cast<std::int64_t>(text.size()));
    }

    // The determinism contract: only results every future run would
    // reproduce byte-for-byte are cached. Errors may heal (registry
    // additions) and deadline-truncated results depend on wall-clock.
    if (result.ok && !result.deadline_expired)
        result_cache_.Put(fingerprint, text);

    if (!result.ok)
        counters_.errors.fetch_add(1, std::memory_order_relaxed);
    {
        MutexLock lock(mutex_);
        // Memoize deterministic failures for a short TTL. Cancelled and
        // deadline-shaped results reflect this caller's QoS — another
        // request with the same fingerprint could well succeed — so
        // they never enter the memo.
        if (error_ttl_ms_ > 0 && !result.ok &&
            !result.deadline_expired && result.error != "cancelled") {
            const auto now = Now();
            constexpr std::size_t kNegativeCap = 1024;
            if (negative_.size() >= kNegativeCap) {
                // At capacity: sweep expired entries — every expired
                // entry goes regardless of visit order, so the hash
                // iteration order below cannot leak into behaviour.
                // somalint: allow(unordered-iter) expiry sweep removes
                for (auto it = negative_.begin(); it != negative_.end();) {
                    it = now >= it->second.expires ? negative_.erase(it)
                                                  : std::next(it);
                }
                if (negative_.size() >= kNegativeCap) {
                    // Still saturated by live entries: evict the entry
                    // closest to expiry (fingerprint breaks ties). The
                    // previous erase(begin()) depended on hash iteration
                    // order — a different victim per run/platform; the
                    // min-scan is deterministic for a given entry set.
                    // somalint: allow(unordered-iter) deterministic min
                    auto victim = negative_.begin();
                    // somalint: allow(unordered-iter) deterministic min
                    for (auto it = std::next(victim);
                         it != negative_.end(); ++it) {
                        if (it->second.expires < victim->second.expires ||
                            (it->second.expires ==
                                 victim->second.expires &&
                             it->first < victim->first)) {
                            victim = it;
                        }
                    }
                    negative_.erase(victim);
                }
            }
            negative_[fingerprint] = NegativeEntry{
                now + std::chrono::milliseconds(error_ttl_ms_),
                text};
        }
        flight->text = text;
        flight->done = true;
        inflight_.erase(fingerprint);
    }
    flight->cv.NotifyAll();
    if (result_json) *result_json = std::move(text);
    return result;  // the leader keeps the in-process payload
}

ServiceStats
SchedulerService::stats() const
{
    ServiceStats out;
    out.requests = counters_.requests.load(std::memory_order_relaxed);
    out.coalesced = counters_.coalesced.load(std::memory_order_relaxed);
    out.searches = counters_.searches.load(std::memory_order_relaxed);
    out.uncacheable =
        counters_.uncacheable.load(std::memory_order_relaxed);
    out.errors = counters_.errors.load(std::memory_order_relaxed);
    out.negative_hits =
        counters_.negative_hits.load(std::memory_order_relaxed);
    out.result_cache = result_cache_.stats();
    out.graph_cache = graph_cache_.stats();
    out.warm_state = warm_state_cache_.stats();
    return out;
}

}  // namespace soma

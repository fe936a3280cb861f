#include "service/service.h"

#include <chrono>
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
}

SchedulerService::SchedulerService(const ServiceOptions &options)
    : result_cache_(ResultCache::Options{options.result_cache_capacity,
                                         options.cache_dir,
                                         kResultCacheSchemaVersion})
{
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
    // One deadline anchor, taken at entry on the monotonic clock: a
    // coalesced wait polls it, and a search this request leads stops at
    // the same instant (the facade honors a pre-set deadline_tp).
    obs::MonotonicTime deadline = request.deadline_tp;
    if (request.deadline_ms > 0 && deadline.time_since_epoch().count() == 0)
        deadline = obs::MonotonicNow() +
                   std::chrono::milliseconds(request.deadline_ms);

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

    // Each pass ends in a result, or — when the leader this request
    // waited on stopped on its own cancel flag or deadline — re-enters
    // the lookup under this request's own flag and deadline.
    for (;;) {
        // Fast path outside the service lock: the cache has its own
        // mutex and a lookup may touch disk, so warm traffic never
        // serializes behind mutex_.
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
            auto it = inflight_.find(fingerprint);
            if (it == inflight_.end()) {
                // A leader may have published between the unlocked
                // lookup and here; recheck under the registration lock
                // (a memory hit in that race — no disk read for absent
                // entries beyond one failed open).
                if (result_cache_.Get(fingerprint, &text)) {
                    lock.Unlock();
                    if (serve_cached(std::move(text), &cached))
                        return cached;
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
                    if (request.deadline_ms > 0 &&
                        obs::MonotonicNow() >= deadline) {
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
                if (flight->caller_abort) continue;
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
        ScheduleRequest leader = request;
        leader.deadline_tp = deadline;
        return RunAndPublish(std::move(leader), fingerprint, flight,
                             result_json);
    }
}

ScheduleResult
SchedulerService::RunAndPublish(ScheduleRequest request,
                                std::uint64_t fingerprint,
                                const std::shared_ptr<Inflight> &flight,
                                std::string *result_json)
{
    // The workload's one cache entry carries its built graph. Unknown
    // models fall through graph-less so the facade produces its
    // canonical error (with the registered-name candidates).
    std::string err;
    request.graph = graph_cache_.Get(request.model, request.batch,
                                     scheduler_.models(), &err);

    counters_.searches.fetch_add(1, std::memory_order_relaxed);
    ScheduleResult result;
    {
        obs::SpanScope search_span(request.trace, "service.search");
        result = scheduler_.Schedule(request);
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
        flight->text = text;
        // Cancelled and deadline-shaped outcomes reflect this caller's
        // QoS, not the request: a sibling without that flag or deadline
        // must run (or join) a search of its own.
        flight->caller_abort =
            result.deadline_expired || result.error == "cancelled";
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
    out.result_cache = result_cache_.stats();
    out.graph_cache = graph_cache_.stats();
    return out;
}

}  // namespace soma

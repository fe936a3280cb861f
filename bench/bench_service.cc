/**
 * @file
 * Serving-layer throughput: requests/s through SchedulerService for
 * cold traffic (every request runs a real search), warm traffic (every
 * request is a result-cache hit), and a concurrent burst of one
 * fingerprint (in-flight coalescing + cache: N requests, one search).
 * The warm-vs-cold ratio is the headline number — the whole point of
 * the service layer is that repeated traffic stops paying for search.
 *
 * Profiles via SOMA_BENCH_PROFILE=quick|default|full (request count
 * and search profile scale). Emits --json rows for cross-PR tracking:
 *   service/cold       requests_per_second
 *   service/warm       requests_per_second
 *   service/warm_vs_cold  speedup   (acceptance bar: >= 10 on quick)
 *   service/coalesce   fanout      (requests per executed search)
 *
 * Run: ./build/bench_service [--json <path>]
 */
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/clock.h"
#include "service/service.h"

namespace {

using namespace soma;
using obs::MonotonicNow;
using obs::SecondsSince;

ScheduleRequest
SweepPoint(SearchProfile profile, std::uint64_t seed)
{
    ScheduleRequest request;
    request.model = "resnet50";
    request.profile = profile;
    request.seed = seed;
    return request;
}

}  // namespace

int
main(int argc, char **argv)
{
    using bench::Profile;
    bench::InitBenchJson(&argc, argv);
    const Profile profile = bench::ProfileFromEnv();

    int requests;
    SearchProfile search_profile;
    switch (profile) {
      case Profile::kQuick:
        requests = 8;
        search_profile = SearchProfile::kQuick;
        break;
      case Profile::kFull:
        requests = 24;
        search_profile = SearchProfile::kDefault;
        break;
      case Profile::kDefault:
      default:
        requests = 16;
        search_profile = SearchProfile::kQuick;
        break;
    }

    std::printf("service throughput (profile=%s, %d requests, "
                "search profile=%s)\n\n",
                bench::ProfileName(profile), requests,
                ToString(search_profile));

    SchedulerService service;

    // ------------------------------------------------- cold traffic
    obs::MonotonicTime t0 = MonotonicNow();
    for (int i = 0; i < requests; ++i) {
        ScheduleResult r =
            service.Schedule(SweepPoint(search_profile, 1 + i));
        if (!r.ok) {
            std::fprintf(stderr, "cold request failed: %s\n",
                         r.error.c_str());
            return 1;
        }
    }
    const double cold_s = SecondsSince(t0);
    const double cold_rps = requests / cold_s;

    // ------------------------------------------------- warm traffic
    t0 = MonotonicNow();
    for (int i = 0; i < requests; ++i) {
        ScheduleResult r =
            service.Schedule(SweepPoint(search_profile, 1 + i));
        if (!r.ok) {
            std::fprintf(stderr, "warm request failed: %s\n",
                         r.error.c_str());
            return 1;
        }
    }
    const double warm_s = SecondsSince(t0);
    const double warm_rps = requests / warm_s;
    const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;

    const ServiceStats after_warm = service.stats();
    std::printf("  cold  %4d requests %8.3f s %10.1f req/s\n", requests,
                cold_s, cold_rps);
    std::printf("  warm  %4d requests %8.3f s %10.1f req/s "
                "(%llu cache hits)\n",
                requests, warm_s, warm_rps,
                static_cast<unsigned long long>(
                    after_warm.result_cache.hits));
    std::printf("  warm vs cold: %.1fx\n\n", speedup);

    // ------------------------------------- coalescing burst (1 fp)
    const int burst = 8;
    std::vector<std::thread> callers;
    callers.reserve(burst);
    const ScheduleRequest shared = SweepPoint(search_profile, 7777);
    t0 = MonotonicNow();
    for (int i = 0; i < burst; ++i)
        callers.emplace_back([&] { service.Schedule(shared); });
    for (std::thread &t : callers) t.join();
    const double burst_s = SecondsSince(t0);
    const ServiceStats after_burst = service.stats();
    const std::uint64_t burst_searches =
        after_burst.searches - after_warm.searches;
    const double fanout =
        burst_searches > 0
            ? static_cast<double>(burst) /
                  static_cast<double>(burst_searches)
            : static_cast<double>(burst);
    std::printf("  burst %4d concurrent same-fingerprint requests "
                "%8.3f s: %llu search(es), fan-out %.1fx "
                "(%llu coalesced)\n",
                burst, burst_s,
                static_cast<unsigned long long>(burst_searches), fanout,
                static_cast<unsigned long long>(after_burst.coalesced));

    bench::JsonSink::Instance().Add("service/cold", "requests_per_second",
                                    cold_rps);
    bench::JsonSink::Instance().Add("service/warm", "requests_per_second",
                                    warm_rps);
    bench::JsonSink::Instance().Add("service/warm_vs_cold", "speedup",
                                    speedup);
    bench::JsonSink::Instance().Add("service/coalesce", "fanout", fanout);
    bench::JsonSink::Instance().Flush();
    return 0;
}

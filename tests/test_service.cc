/**
 * @file
 * Service-layer tests: request fingerprinting (canonical JSON, key
 * order and QoS-field invariance), the ResultCache LRU + persistence,
 * the GraphCache, in-flight coalescing, the cache-determinism contract
 * (cached result == recomputed result, byte for byte), deadline
 * truncation, and the iteration-granular cooperative cancellation that
 * backs ScheduleRequest::cancel/deadline_ms.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "search/driver.h"
#include "service/service.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

/** Small 4-layer CNN, parameterized on batch like a zoo builder. */
Graph
BuildSvcTiny(int batch)
{
    GraphBuilder b("svc-tiny", batch);
    ExtShape image{3, 32, 32};
    LayerId c1 = b.InputConv("c1", image, 16, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 16, 3, 1, 1);
    LayerId c3 = b.Conv("c3", c2, 32, 3, 2, 1);
    LayerId gap = b.GlobalPool("gap", c3);
    b.MarkOutput(gap);
    return b.Take();
}

/** A service whose registry knows the test workload. */
std::unique_ptr<SchedulerService>
MakeService(ServiceOptions options = ServiceOptions{})
{
    auto service = std::make_unique<SchedulerService>(options);
    service->scheduler().models().Register("svc-tiny", BuildSvcTiny);
    return service;
}

ScheduleRequest
TinyRequest(std::uint64_t seed)
{
    ScheduleRequest request;
    request.model = "svc-tiny";
    request.profile = SearchProfile::kQuick;
    request.seed = seed;
    return request;
}

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
FreshDir(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "soma_" + name;
    std::filesystem::remove_all(path);
    return path;
}

// ----------------------------------------------------------- fingerprint

TEST(Fingerprint, CanonicalDumpSortsKeysRecursively)
{
    Json a, b;
    std::string err;
    ASSERT_TRUE(Json::Parse("{\"b\": {\"y\": 1, \"x\": 2}, \"a\": [3]}",
                            &a, &err));
    ASSERT_TRUE(Json::Parse("{\"a\": [3], \"b\": {\"x\": 2, \"y\": 1}}",
                            &b, &err));
    EXPECT_NE(a.Dump(), b.Dump());  // insertion order preserved
    EXPECT_EQ(a.CanonicalDump(), b.CanonicalDump());
    EXPECT_EQ(a.CanonicalDump(), "{\"a\":[3],\"b\":{\"x\":2,\"y\":1}}");
}

TEST(Fingerprint, IgnoresJsonKeyOrder)
{
    Json a, b;
    std::string err;
    ASSERT_TRUE(Json::Parse(
        "{\"model\": \"resnet50\", \"seed\": 7, \"batch\": 4}", &a, &err));
    ASSERT_TRUE(Json::Parse(
        "{\"batch\": 4, \"model\": \"resnet50\", \"seed\": 7}", &b, &err));
    ScheduleRequest ra, rb;
    ASSERT_TRUE(ScheduleRequest::FromJson(a, &ra, &err)) << err;
    ASSERT_TRUE(ScheduleRequest::FromJson(b, &rb, &err)) << err;
    EXPECT_EQ(ra.Fingerprint(), rb.Fingerprint());
}

TEST(Fingerprint, CoversResultAffectingFieldsOnly)
{
    ScheduleRequest base = TinyRequest(7);
    const std::uint64_t fp = base.Fingerprint();

    // QoS knobs do not change identity...
    ScheduleRequest qos = base;
    qos.threads = 8;
    qos.deadline_ms = 5000;
    EXPECT_EQ(qos.Fingerprint(), fp);

    // ...every result-affecting field does.
    ScheduleRequest other = base;
    other.seed = 8;
    EXPECT_NE(other.Fingerprint(), fp);
    other = base;
    other.model = "resnet50";
    EXPECT_NE(other.Fingerprint(), fp);
    other = base;
    other.batch = 2;
    EXPECT_NE(other.Fingerprint(), fp);
    other = base;
    other.chains = 8;
    EXPECT_NE(other.Fingerprint(), fp);
    other = base;
    other.cost_m = 2.0;
    EXPECT_NE(other.Fingerprint(), fp);
    other = base;
    other.artifacts.instructions = true;
    EXPECT_NE(other.Fingerprint(), fp);
}

TEST(Fingerprint, HexRoundTrip)
{
    const std::uint64_t v = 0x01ab89ef45cd2367ULL;
    EXPECT_EQ(HexU64(v), "01ab89ef45cd2367");
    std::uint64_t back = 0;
    ASSERT_TRUE(ParseHexU64(HexU64(v), &back));
    EXPECT_EQ(back, v);
    EXPECT_FALSE(ParseHexU64("xyz", &back));
    EXPECT_FALSE(ParseHexU64("01ab89ef45cd23", &back));  // too short
}

// ----------------------------------------------------------- ResultCache

TEST(ResultCache, LruEvictionBoundsMemory)
{
    ResultCache::Options options;
    options.capacity = 2;
    ResultCache cache(options);
    cache.Put(1, "one");
    cache.Put(2, "two");
    std::string text;
    ASSERT_TRUE(cache.Get(1, &text));  // 1 becomes MRU
    cache.Put(3, "three");             // evicts 2 (LRU)
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.Get(1, &text));
    EXPECT_EQ(text, "one");
    EXPECT_FALSE(cache.Get(2, &text));
    EXPECT_TRUE(cache.Get(3, &text));
    const ResultCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.insertions, 3u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCache, PersistsAcrossInstances)
{
    ResultCache::Options options;
    options.persist_dir = FreshDir("result_cache_persist");
    {
        ResultCache cache(options);
        cache.Put(0xabcdULL, "{\"ok\":true}");
    }
    ResultCache fresh(options);
    EXPECT_EQ(fresh.size(), 0u);
    std::string text;
    ASSERT_TRUE(fresh.Get(0xabcdULL, &text));  // disk hit
    EXPECT_EQ(text, "{\"ok\":true}");
    EXPECT_EQ(fresh.stats().disk_hits, 1u);
    EXPECT_EQ(fresh.size(), 1u);  // repopulated into memory
}

TEST(ResultCache, VersionMismatchInvalidatesPersistedEntries)
{
    // A behaviour-changing build bumps kResultCacheSchemaVersion; disk
    // entries from the old build must load as misses, not replay stale
    // results computed under different search behaviour.
    ResultCache::Options v1 = ResultCache::Options{};
    v1.persist_dir = FreshDir("result_cache_version");
    v1.version = 1;
    {
        ResultCache cache(v1);
        cache.Put(0x1234ULL, "{\"ok\":true}");
    }
    ResultCache::Options v2 = v1;
    v2.version = 2;
    ResultCache newer(v2);
    std::string text;
    EXPECT_FALSE(newer.Get(0x1234ULL, &text));
    EXPECT_EQ(newer.stats().version_mismatches, 1u);
    EXPECT_EQ(newer.stats().misses, 1u);

    // The new build overwrites the stale file; its own restarts hit.
    newer.Put(0x1234ULL, "{\"ok\":true,\"v\":2}");
    ResultCache again(v2);
    ASSERT_TRUE(again.Get(0x1234ULL, &text));
    EXPECT_EQ(text, "{\"ok\":true,\"v\":2}");

    // And the old build, pointed at the overwritten file, misses too:
    // versions partition the directory both ways.
    ResultCache old_again(v1);
    EXPECT_FALSE(old_again.Get(0x1234ULL, &text));
}

TEST(ResultCache, LegacyHeaderlessFilesAreMisses)
{
    ResultCache::Options options;
    options.persist_dir = FreshDir("result_cache_legacy");
    std::filesystem::create_directories(options.persist_dir);
    ResultCache cache(options);
    std::ofstream raw(cache.PathFor(0x77ULL), std::ios::binary);
    raw << "{\"ok\":true}";  // pre-versioning format: no header
    raw.close();
    std::string text;
    EXPECT_FALSE(cache.Get(0x77ULL, &text));
    // No version header at all is a plain miss, not version skew —
    // the mismatch counter only tracks files that name a version.
    EXPECT_EQ(cache.stats().version_mismatches, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCache, LengthlessV2HeadersAreVersionSkew)
{
    // PR 4's header carried no payload length; such files cannot be
    // torn-checked, so they count as version skew (they do carry the
    // somacache magic) and load as misses.
    ResultCache::Options options;
    options.persist_dir = FreshDir("result_cache_lengthless");
    std::filesystem::create_directories(options.persist_dir);
    ResultCache cache(options);
    std::ofstream raw(cache.PathFor(0x78ULL), std::ios::binary);
    raw << "somacache " << options.version << "\n{\"ok\":true}";
    raw.close();
    std::string text;
    EXPECT_FALSE(cache.Get(0x78ULL, &text));
    EXPECT_EQ(cache.stats().version_mismatches, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCache, TornPersistedEntryLoadsAsMiss)
{
    // The torn-file regression: a payload shorter than its header
    // claims (a partial copy, a crashed pre-atomic-rename writer) must
    // load as a miss — never as garbage bytes handed to the service.
    ResultCache::Options options;
    options.persist_dir = FreshDir("result_cache_torn");
    std::string path;
    {
        ResultCache cache(options);
        cache.Put(0x99ULL, "{\"ok\":true,\"cost\":12345678}");
        path = cache.PathFor(0x99ULL);
    }
    std::string full;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        full = ss.str();
    }
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << full.substr(0, full.size() - 5);  // tear the tail off
    }
    ResultCache fresh(options);
    std::string text;
    EXPECT_FALSE(fresh.Get(0x99ULL, &text));
    EXPECT_EQ(fresh.stats().misses, 1u);
    // Torn is corruption, not version skew.
    EXPECT_EQ(fresh.stats().version_mismatches, 0u);
    // The next Put heals the file.
    fresh.Put(0x99ULL, "{\"ok\":true,\"cost\":12345678}");
    ResultCache again(options);
    ASSERT_TRUE(again.Get(0x99ULL, &text));
    EXPECT_EQ(text, "{\"ok\":true,\"cost\":12345678}");
}

TEST(ResultCache, HeaderTornBeforeNewlineIsCorruptionNotSkew)
{
    // A tear can also land inside the header itself (no newline yet):
    // that is corruption like any other torn file — a plain miss —
    // not version skew, even though the magic is present.
    ResultCache::Options options;
    options.persist_dir = FreshDir("result_cache_torn_header");
    std::filesystem::create_directories(options.persist_dir);
    ResultCache cache(options);
    std::ofstream raw(cache.PathFor(0x9aULL), std::ios::binary);
    raw << "somacache " << options.version;  // torn before the newline
    raw.close();
    std::string text;
    EXPECT_FALSE(cache.Get(0x9aULL, &text));
    EXPECT_EQ(cache.stats().version_mismatches, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCache, ConcurrentWritersNeverPublishTornEntries)
{
    // Two caches sharing one directory (the `somac sweep --shard`
    // topology) hammer the same fingerprint with different payloads of
    // different lengths; thanks to temp-file + atomic rename a reader
    // must always observe one complete payload, never an interleaving.
    ResultCache::Options options;
    options.persist_dir = FreshDir("result_cache_race");
    const std::string a(2000, 'a');
    const std::string b = std::string(4000, 'b') + "tail";
    ResultCache w1(options), w2(options);
    for (int round = 0; round < 20; ++round) {
        std::thread t1([&] { w1.Put(0x5aULL, a); });
        std::thread t2([&] { w2.Put(0x5aULL, b); });
        t1.join();
        t2.join();
        ResultCache reader(options);
        std::string text;
        ASSERT_TRUE(reader.Get(0x5aULL, &text)) << "round " << round;
        EXPECT_TRUE(text == a || text == b)
            << "round " << round << ": torn payload of " << text.size()
            << " bytes";
    }
    // No temp droppings left behind.
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(options.persist_dir)) {
        ++files;
        EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
    }
    EXPECT_EQ(files, 1u);
}

// ------------------------------------------------------------ GraphCache

TEST(GraphCache, BuildsOncePerModelBatch)
{
    ModelRegistry models;
    models.Register("svc-tiny", BuildSvcTiny);
    GraphCache cache(8);
    std::string err;
    auto g1 = cache.Get("svc-tiny", 1, models, &err);
    ASSERT_TRUE(g1) << err;
    auto g2 = cache.Get("svc-tiny", 1, models, &err);
    EXPECT_EQ(g1.get(), g2.get());  // shared, not rebuilt
    auto g4 = cache.Get("svc-tiny", 4, models, &err);
    ASSERT_TRUE(g4);
    EXPECT_NE(g1.get(), g4.get());  // batch is part of the key
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);

    EXPECT_FALSE(cache.Get("nope", 1, models, &err));
    EXPECT_NE(err.find("nope"), std::string::npos);
}

TEST(GraphCache, EvictsInLruOrderAndHoldersKeepTheirGraph)
{
    ModelRegistry models;
    models.Register("svc-tiny", BuildSvcTiny);
    GraphCache cache(2);
    std::string err;
    auto g1 = cache.Get("svc-tiny", 1, models, &err);
    auto g4 = cache.Get("svc-tiny", 4, models, &err);
    ASSERT_TRUE(g1 && g4) << err;
    // Touch batch 1: batch 4 becomes the LRU tail.
    EXPECT_EQ(cache.Get("svc-tiny", 1, models, &err).get(), g1.get());

    // Beyond capacity the tail (batch 4) goes; batch 1 stays resident.
    ASSERT_TRUE(cache.Get("svc-tiny", 2, models, &err));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.Get("svc-tiny", 1, models, &err).get(), g1.get());
    EXPECT_EQ(cache.stats().misses, 3u);
    auto g4_rebuilt = cache.Get("svc-tiny", 4, models, &err);
    ASSERT_TRUE(g4_rebuilt);
    EXPECT_NE(g4_rebuilt.get(), g4.get());
    EXPECT_EQ(cache.stats().misses, 4u);

    // A holder of an evicted entry keeps using its graph.
    EXPECT_EQ(g4->NumLayers(), g4_rebuilt->NumLayers());
    EXPECT_EQ(g4->batch(), 4);
}

// --------------------------------------------------------------- service

TEST(Service, CacheHitIsBitIdenticalToColdRun)
{
    auto service = MakeService();
    ScheduleRequest request = TinyRequest(3);
    request.artifacts.instructions = true;

    std::string cold_text, warm_text;
    ScheduleResult cold = service->Schedule(request, &cold_text);
    ASSERT_TRUE(cold.ok) << cold.error;
    ScheduleResult warm = service->Schedule(request, &warm_text);
    ASSERT_TRUE(warm.ok) << warm.error;

    EXPECT_EQ(cold_text, warm_text);  // the determinism contract
    // Re-serializing the deserialized result is a fixpoint, so
    // downstream consumers cannot tell a hit from a cold run.
    EXPECT_EQ(warm.ToJson().Dump(2), cold_text);
    EXPECT_EQ(warm.scheme, cold.scheme);
    EXPECT_EQ(warm.cost, cold.cost);
    EXPECT_EQ(warm.report.latency, cold.report.latency);
    EXPECT_EQ(warm.asm_text, cold.asm_text);

    const ServiceStats stats = service->stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.searches, 1u);
    EXPECT_EQ(stats.result_cache.hits, 1u);
    // A cold request looks up twice: the unlocked fast path and the
    // in-flight registration recheck.
    EXPECT_EQ(stats.result_cache.misses, 2u);
}

TEST(Service, ResultCacheEvictionTriggersRecompute)
{
    ServiceOptions options;
    options.result_cache_capacity = 1;
    auto service = MakeService(options);
    ASSERT_TRUE(service->Schedule(TinyRequest(1)).ok);
    ASSERT_TRUE(service->Schedule(TinyRequest(2)).ok);  // evicts seed 1
    ASSERT_TRUE(service->Schedule(TinyRequest(1)).ok);  // recomputed
    const ServiceStats stats = service->stats();
    EXPECT_EQ(stats.searches, 3u);
    EXPECT_GE(stats.result_cache.evictions, 1u);
    EXPECT_EQ(service->result_cache().size(), 1u);
}

TEST(Service, PersistentCacheSurvivesRestart)
{
    ServiceOptions options;
    options.cache_dir = FreshDir("service_persist");

    std::string cold_text;
    {
        auto service = MakeService(options);
        ScheduleResult cold = service->Schedule(TinyRequest(5), &cold_text);
        ASSERT_TRUE(cold.ok) << cold.error;
        EXPECT_EQ(service->stats().result_cache.disk_writes, 1u);
    }

    auto service = MakeService(options);  // "restarted" process
    std::string warm_text;
    ScheduleResult warm = service->Schedule(TinyRequest(5), &warm_text);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm_text, cold_text);
    const ServiceStats stats = service->stats();
    EXPECT_EQ(stats.searches, 0u);
    EXPECT_EQ(stats.result_cache.disk_hits, 1u);
}

TEST(Service, InlineGraphsBypassTheCache)
{
    auto service = MakeService();
    ScheduleRequest request;
    request.graph = std::make_shared<const Graph>(BuildSvcTiny(1));
    request.profile = SearchProfile::kQuick;
    ASSERT_TRUE(service->Schedule(request).ok);
    ASSERT_TRUE(service->Schedule(request).ok);
    const ServiceStats stats = service->stats();
    EXPECT_EQ(stats.uncacheable, 2u);
    EXPECT_EQ(stats.result_cache.hits, 0u);
    EXPECT_EQ(stats.result_cache.insertions, 0u);
}

TEST(Service, CoalescedSiblingsObserveOneSearch)
{
    auto service = MakeService();
    constexpr int kCallers = 3;

    // Whoever becomes leader stalls inside the search phase until both
    // siblings have joined the in-flight entry, guaranteeing overlap.
    std::atomic<bool> release{false};
    ScheduleRequest request = TinyRequest(11);
    request.on_progress = [&](const ProgressEvent &event) {
        if (event.phase != "search") return;
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!release.load() &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::yield();
    };

    std::vector<std::string> texts(kCallers);
    std::vector<ScheduleResult> results(kCallers);
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i) {
        callers.emplace_back([&, i] {
            results[i] = service->Schedule(request, &texts[i]);
        });
    }
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service->stats().coalesced <
               static_cast<std::uint64_t>(kCallers - 1) &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::yield();
    EXPECT_EQ(service->stats().coalesced,
              static_cast<std::uint64_t>(kCallers - 1));
    release.store(true);
    for (std::thread &t : callers) t.join();

    for (int i = 0; i < kCallers; ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(texts[i], texts[0]);  // every sibling: same bytes
    }
    const ServiceStats stats = service->stats();
    EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kCallers));
    EXPECT_EQ(stats.searches, 1u);
}

TEST(Service, GraphCacheParsesModelOncePerSweep)
{
    auto service = MakeService();
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        ASSERT_TRUE(service->Schedule(TinyRequest(seed)).ok);
    const ServiceStats stats = service->stats();
    EXPECT_EQ(stats.graph_cache.misses, 1u);  // one build...
    EXPECT_EQ(stats.graph_cache.hits, 3u);    // ...three reuses
    EXPECT_EQ(stats.searches, 4u);            // distinct seeds: no hits
}

// ---------------------------------------------------- deadline + cancel

TEST(Service, DeadlineExpiredReportsDistinctStatusAndIsNotCached)
{
    auto service = MakeService();
    ScheduleRequest request = TinyRequest(13);
    request.profile = SearchProfile::kFull;
    request.deadline_ms = 1;
    ScheduleResult result = service->Schedule(request);

    // Truncated almost immediately: either the best-so-far was valid
    // (ok + deadline_expired) or nothing was found yet (a "deadline"
    // error) — both are distinct from success and from "cancelled".
    if (result.ok) {
        EXPECT_TRUE(result.deadline_expired);
        const Json json = result.ToJson();
        ASSERT_NE(json.Find("deadline_expired"), nullptr);
        EXPECT_TRUE(json.Find("deadline_expired")->AsBool());
    } else {
        EXPECT_NE(result.error.find("deadline"), std::string::npos);
    }

    // Wall-clock-truncated results violate the determinism contract,
    // so they never enter the cache.
    EXPECT_EQ(service->stats().result_cache.insertions, 0u);
    service->Schedule(request);
    EXPECT_EQ(service->stats().searches, 2u);
}

TEST(Service, CoalescedWaiterHonorsItsOwnDeadline)
{
    auto service = MakeService();

    // The leader stalls in its search phase; a sibling with a 50 ms
    // deadline must give up with the deadline status instead of
    // blocking on the leader.
    std::atomic<bool> release{false};
    ScheduleRequest leader_request = TinyRequest(19);
    leader_request.memory_model = "analytical";
    leader_request.on_progress = [&](const ProgressEvent &event) {
        if (event.phase != "search") return;
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!release.load() &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::yield();
    };
    std::thread leader(
        [&] { ASSERT_TRUE(service->Schedule(leader_request).ok); });
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service->stats().searches < 1 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::yield();

    ScheduleRequest sibling = TinyRequest(19);  // same fingerprint
    sibling.memory_model = "analytical";
    sibling.deadline_ms = 50;
    ScheduleResult aborted = service->Schedule(sibling);
    EXPECT_FALSE(aborted.ok);
    EXPECT_TRUE(aborted.deadline_expired);
    EXPECT_NE(aborted.error.find("deadline"), std::string::npos);
    // The aborted reply carries the same request echo as a searched one.
    EXPECT_EQ(aborted.model, "svc-tiny");
    EXPECT_EQ(aborted.memory_model, "analytical");

    release.store(true);
    leader.join();
    EXPECT_EQ(service->stats().searches, 1u);
}

TEST(Service, CoalescedWaiterIgnoresLeaderCancelAndDeadline)
{
    // A leader that stops on its own cancel flag or deadline answers no
    // sibling: a waiter that set neither must get a full search's
    // result, not "cancelled" or a truncated best-so-far.
    Scheduler plain;
    plain.models().Register("svc-tiny", BuildSvcTiny);
    auto scheduling_bytes = [](const std::string &text) {
        Json json;
        std::string err;
        EXPECT_TRUE(Json::Parse(text, &json, &err)) << err;
        json.Erase("stats");
        return json.Dump(2);
    };
    for (const bool by_deadline : {false, true}) {
        SCOPED_TRACE(by_deadline ? "leader deadline" : "leader cancel");
        auto service = MakeService();
        const std::uint64_t seed = by_deadline ? 23 : 29;

        // The leader stalls in its search phase until the waiter has
        // joined and the leader's own cancel flag or deadline has hit.
        std::atomic<bool> release{false}, cancel{false};
        ScheduleRequest leader_request = TinyRequest(seed);
        if (by_deadline) {
            leader_request.deadline_ms = 1;
        } else {
            leader_request.cancel = &cancel;
        }
        leader_request.on_progress = [&](const ProgressEvent &event) {
            if (event.phase != "search") return;
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (!release.load() &&
                   std::chrono::steady_clock::now() < give_up)
                std::this_thread::yield();
        };
        ScheduleResult led;
        std::thread leader([&] { led = service->Schedule(leader_request); });
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (service->stats().searches < 1 &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::yield();

        std::string waited_text;
        ScheduleResult waited;
        std::thread waiter([&] {
            waited = service->Schedule(TinyRequest(seed), &waited_text);
        });
        while (service->stats().coalesced < 1 &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::yield();
        EXPECT_EQ(service->stats().coalesced, 1u);
        if (by_deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        } else {
            cancel.store(true);
        }
        release.store(true);
        leader.join();
        waiter.join();

        if (by_deadline) {
            EXPECT_TRUE(led.deadline_expired);
        } else {
            EXPECT_EQ(led.error, "cancelled");
        }
        EXPECT_TRUE(waited.ok) << waited.error;
        EXPECT_FALSE(waited.deadline_expired);
        EXPECT_EQ(scheduling_bytes(waited_text),
                  scheduling_bytes(
                      plain.Schedule(TinyRequest(seed)).ToJson().Dump(2)));
        EXPECT_EQ(service->stats().searches, 2u);  // the waiter re-ran
    }
}

// ------------------------------------------------------------- failures

TEST(Service, FailuresAreNeverCachedAndHealAfterRegister)
{
    auto service = MakeService();
    ScheduleRequest request = TinyRequest(2);
    request.model = "late-model";

    EXPECT_FALSE(service->Schedule(request).ok);
    EXPECT_FALSE(service->Schedule(request).ok);  // searched again
    // Errors are not pure: the very next request sees a registration.
    service->scheduler().models().Register("late-model", BuildSvcTiny);
    EXPECT_TRUE(service->Schedule(request).ok);
    const ServiceStats stats = service->stats();
    EXPECT_EQ(stats.searches, 3u);
    EXPECT_EQ(stats.errors, 2u);
    EXPECT_EQ(stats.result_cache.insertions, 1u);
}

// ------------------------------------------------------------ graph cache

TEST(Service, CachedGraphRunsAreByteIdenticalToTheFacade)
{
    // A search over the graph cache's shared graph produces the same
    // bytes as the plain facade, which builds its own graph per
    // request: a cached graph is content-identical to a fresh build.
    Scheduler facade;
    facade.models().Register("svc-tiny", BuildSvcTiny);
    auto service = MakeService();

    // "Identical" means every scheduling field: only the wall-clock
    // timings under "stats" may differ between two real runs (the CI
    // determinism check strips them the same way).
    auto scheduling_bytes = [](const std::string &text) {
        Json json;
        std::string err;
        EXPECT_TRUE(Json::Parse(text, &json, &err)) << err;
        json.Erase("stats");
        return json.Dump(2);
    };
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        std::string facade_text, service_text;
        ScheduleResult c = facade.Schedule(TinyRequest(seed));
        facade_text = c.ToJson().Dump(2);
        ScheduleResult w =
            service->Schedule(TinyRequest(seed), &service_text);
        ASSERT_TRUE(c.ok) << c.error;
        ASSERT_TRUE(w.ok) << w.error;
        EXPECT_EQ(scheduling_bytes(facade_text),
                  scheduling_bytes(service_text))
            << "seed " << seed;
        EXPECT_EQ(c.stats.iterations, w.stats.iterations);
        EXPECT_EQ(c.stats.evaluated, w.stats.evaluated);
        EXPECT_EQ(c.stats.accepted, w.stats.accepted);
    }
    // A GBUF-override point of the same model is a result-cache miss
    // but a graph-cache hit: the graph is hardware-free.
    ScheduleRequest dse = TinyRequest(1);
    dse.gbuf_bytes = 1 << 20;
    ASSERT_TRUE(service->Schedule(dse).ok);

    const ServiceStats ws = service->stats();
    EXPECT_EQ(ws.graph_cache.misses, 1u);
    EXPECT_EQ(ws.graph_cache.hits, 3u);  // seeds 2, 3 and the DSE point
}

// ---------------------------------------------------- counter correctness

TEST(Service, ConcurrentScheduleKeepsCountersConsistent)
{
    // Counter torn-write stress (runs under the TSan CI job): threads
    // hammer every exit door of Schedule() — cache hit, coalesced wait,
    // real (failing) search — and the atomic counters must add up
    // exactly afterwards.
    auto service = MakeService();
    ASSERT_TRUE(service->Schedule(TinyRequest(1)).ok);
    ASSERT_TRUE(service->Schedule(TinyRequest(2)).ok);
    ScheduleRequest bad = TinyRequest(3);
    bad.model = "no-such-model";
    EXPECT_FALSE(service->Schedule(bad).ok);

    constexpr int kThreads = 8, kIters = 30;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                switch ((t + i) % 3) {
                  case 0: service->Schedule(TinyRequest(1)); break;
                  case 1: service->Schedule(TinyRequest(2)); break;
                  default: service->Schedule(bad); break;
                }
            }
        });
    }
    for (std::thread &t : threads) t.join();

    const ServiceStats stats = service->stats();
    EXPECT_EQ(stats.requests,
              3u + static_cast<std::uint64_t>(kThreads) * kIters);
    // Every named-model request leaves through exactly one door.
    EXPECT_EQ(stats.requests, stats.searches + stats.coalesced +
                                  stats.result_cache.hits);
    EXPECT_EQ(stats.uncacheable, 0u);
    // The good seeds were cached by the priming requests; every other
    // search ran the failing request, which is never cached.
    EXPECT_EQ(stats.errors, stats.searches - 2u);
    EXPECT_GT(stats.errors, 1u);
}

// ----------------------------------------------------------- cancellation

TEST(Cancellation, RunSaWindowStopsIterationGranularly)
{
    std::atomic<bool> cancel{true};  // pre-set: stop at the first check
    SearchDriverOptions stop;
    stop.cancel = &cancel;
    const int iterations = 100000;

    int current = 0, best = 0;
    double current_cost = 1000.0, best_cost = 1000.0;
    Rng rng(1);
    SaStats stats;
    RunSaWindow<int>(
        &current, &current_cost, &best, &best_cost,
        [](const int &cur, int *next, Rng &) {
            *next = cur + 1;
            return true;
        },
        [](const int &state) { return 1000.0 - state; }, iterations, stop,
        rng, 0, iterations, &stats);

    EXPECT_LT(stats.iterations, kStopCheckInterval);
    EXPECT_EQ(stats.iterations, stats.evaluated + stats.no_move);
}

TEST(Cancellation, SyncScheduleCancelsMidSearch)
{
    Scheduler scheduler;
    scheduler.models().Register("svc-tiny", BuildSvcTiny);

    ScheduleRequest request = TinyRequest(17);
    request.profile = SearchProfile::kDefault;
    ScheduleResult full = scheduler.Schedule(request);
    ASSERT_TRUE(full.ok) << full.error;

    // Same request, but the flag trips as the search phase begins: the
    // annealing loops notice within one check interval.
    std::atomic<bool> cancel{false};
    request.cancel = &cancel;
    request.on_progress = [&](const ProgressEvent &event) {
        if (event.phase == "search") cancel.store(true);
    };
    ScheduleResult cancelled = scheduler.Schedule(request);
    EXPECT_FALSE(cancelled.ok);
    EXPECT_EQ(cancelled.error, "cancelled");
    EXPECT_FALSE(cancelled.deadline_expired);
    EXPECT_LT(cancelled.stats.iterations, full.stats.iterations);
}

}  // namespace
}  // namespace soma

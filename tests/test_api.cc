/**
 * @file
 * Unified scheduler API tests: the JSON library, request/result
 * (de)serialization fidelity (bit-for-bit doubles, exact u64 seeds),
 * registry lookup/unknown-name behaviour, hardware-override
 * validation, facade-vs-legacy equivalence, and determinism of
 * Schedule() under concurrent callers.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "api/scheduler.h"
#include "search/soma.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

/** Small 5-layer CNN: big enough to schedule, cheap enough to anneal
 *  many times per test. */
std::shared_ptr<const Graph>
TinyNet()
{
    GraphBuilder b("tinynet", 1);
    ExtShape image{3, 32, 32};
    LayerId c1 = b.InputConv("c1", image, 16, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 16, 3, 1, 1);
    LayerId add = b.Eltwise("add", {c1, c2});
    LayerId c3 = b.Conv("c3", add, 32, 3, 2, 1);
    LayerId gap = b.GlobalPool("gap", c3);
    b.MarkOutput(gap);
    return std::make_shared<const Graph>(b.Take());
}

ScheduleRequest
TinyRequest(std::uint64_t seed)
{
    ScheduleRequest request;
    request.graph = TinyNet();
    request.profile = SearchProfile::kQuick;
    request.seed = seed;
    return request;
}

// ----------------------------------------------------------------- JSON

TEST(Json, ParseAndDumpRoundTrip)
{
    const std::string text =
        "{\"a\": 1, \"b\": [true, false, null, -2.5], "
        "\"c\": {\"nested\": \"va\\\"lue\\n\"}}";
    Json json;
    std::string err;
    ASSERT_TRUE(Json::Parse(text, &json, &err)) << err;
    EXPECT_EQ(json.Find("a")->AsInt(), 1);
    EXPECT_EQ(json.Find("b")->size(), 4u);
    EXPECT_TRUE(json.Find("b")->at(0).AsBool());
    EXPECT_TRUE(json.Find("b")->at(2).IsNull());
    EXPECT_DOUBLE_EQ(json.Find("b")->at(3).AsDouble(), -2.5);
    EXPECT_EQ(json.Find("c")->Find("nested")->AsString(), "va\"lue\n");

    // Dump -> Parse -> Dump is a fixpoint.
    const std::string dumped = json.Dump();
    Json again;
    ASSERT_TRUE(Json::Parse(dumped, &again, &err)) << err;
    EXPECT_EQ(again.Dump(), dumped);
}

TEST(Json, DoublesSurviveBitExactly)
{
    const double values[] = {0.0016451465000000001, 1.0 / 3.0, 1e-300,
                             3.1925248931868694e-06};
    for (double v : values) {
        Json json = Json::Object();
        json.Set("x", Json::Number(v));
        Json back;
        std::string err;
        ASSERT_TRUE(Json::Parse(json.Dump(), &back, &err)) << err;
        EXPECT_EQ(back.Find("x")->AsDouble(), v);  // bit-for-bit
    }
}

TEST(Json, U64SeedsSurviveExactly)
{
    const std::uint64_t seed = 0xDEADBEEFCAFEF00DULL;  // > 2^53
    Json json = Json::Object();
    json.Set("seed", Json::U64(seed));
    Json back;
    std::string err;
    ASSERT_TRUE(Json::Parse(json.Dump(), &back, &err)) << err;
    EXPECT_EQ(back.Find("seed")->AsU64(), seed);
}

TEST(Json, NonFiniteNumbersBecomeNull)
{
    Json json = Json::Object();
    json.Set("latency", Json::Number(
                            std::numeric_limits<double>::infinity()));
    EXPECT_EQ(json.Dump(), "{\"latency\":null}");
}

TEST(Json, ParseErrorsCarryOffsets)
{
    Json json;
    std::string err;
    EXPECT_FALSE(Json::Parse("{\"a\": }", &json, &err));
    EXPECT_NE(err.find("byte"), std::string::npos);
    EXPECT_FALSE(Json::Parse("[1, 2] trailing", &json, &err));
    EXPECT_FALSE(Json::Parse("", &json, &err));
}

// ------------------------------------------------- request/result JSON

TEST(RequestJson, RoundTripPreservesEveryField)
{
    ScheduleRequest request;
    request.model = "resnet50";
    request.batch = 4;
    request.hardware = "cloud";
    request.gbuf_bytes = 12LL << 20;
    request.dram_gbps = 48.0;
    request.scheduler = "cocco";
    request.profile = SearchProfile::kFull;
    request.seed = 0xFEEDFACEFEEDFACEULL;
    request.cost_n = 2.0;
    request.cost_m = 0.5;
    request.chains = 8;
    request.threads = 3;
    request.deadline_ms = 2500;
    request.artifacts.ir = true;
    request.artifacts.traces = true;
    request.artifacts.execution_graph_rows = 77;

    ScheduleRequest back;
    std::string err;
    ASSERT_TRUE(ScheduleRequest::FromJson(request.ToJson(), &back, &err))
        << err;
    EXPECT_EQ(back.model, request.model);
    EXPECT_EQ(back.batch, request.batch);
    EXPECT_EQ(back.hardware, request.hardware);
    EXPECT_EQ(back.gbuf_bytes, request.gbuf_bytes);
    EXPECT_EQ(back.dram_gbps, request.dram_gbps);
    EXPECT_EQ(back.scheduler, request.scheduler);
    EXPECT_EQ(back.profile, request.profile);
    EXPECT_EQ(back.seed, request.seed);
    EXPECT_EQ(back.cost_n, request.cost_n);
    EXPECT_EQ(back.cost_m, request.cost_m);
    EXPECT_EQ(back.chains, request.chains);
    EXPECT_EQ(back.threads, request.threads);
    EXPECT_EQ(back.deadline_ms, request.deadline_ms);
    EXPECT_EQ(back.artifacts.ir, request.artifacts.ir);
    EXPECT_EQ(back.artifacts.instructions,
              request.artifacts.instructions);
    EXPECT_EQ(back.artifacts.traces, request.artifacts.traces);
    EXPECT_EQ(back.artifacts.execution_graph_rows,
              request.artifacts.execution_graph_rows);
}

TEST(RequestJson, UnknownFieldsAndInlineGraphsAreRejected)
{
    Json json = Json::Object();
    json.Set("model", Json::Str("resnet50"));
    json.Set("sede", Json::U64(3));  // typo
    ScheduleRequest request;
    std::string err;
    EXPECT_FALSE(ScheduleRequest::FromJson(json, &request, &err));
    EXPECT_NE(err.find("sede"), std::string::npos);

    // Inline-graph requests have no JSON form; the marker is rejected
    // with an explanation.
    ScheduleRequest inline_request;
    inline_request.graph = TinyNet();
    EXPECT_FALSE(ScheduleRequest::FromJson(inline_request.ToJson(),
                                           &request, &err));
    EXPECT_NE(err.find("inline"), std::string::npos);
}

TEST(RequestJson, GarbageNumericsAreRejectedNotTruncated)
{
    ScheduleRequest request;
    std::string err;

    Json json;
    ASSERT_TRUE(Json::Parse("{\"model\": \"resnet50\", \"batch\": 1e300}",
                            &json, &err));
    EXPECT_FALSE(ScheduleRequest::FromJson(json, &request, &err));
    EXPECT_NE(err.find("batch"), std::string::npos);

    ASSERT_TRUE(Json::Parse("{\"model\": \"resnet50\", \"batch\": 0}",
                            &json, &err));
    EXPECT_FALSE(ScheduleRequest::FromJson(json, &request, &err));

    ASSERT_TRUE(Json::Parse("{\"model\": \"resnet50\", \"seed\": -3}",
                            &json, &err));
    EXPECT_FALSE(ScheduleRequest::FromJson(json, &request, &err));
    EXPECT_NE(err.find("seed"), std::string::npos);

    ASSERT_TRUE(Json::Parse(
        "{\"model\": \"resnet50\", \"dram_gbps\": -16}", &json, &err));
    EXPECT_FALSE(ScheduleRequest::FromJson(json, &request, &err));

    ASSERT_TRUE(Json::Parse(
        "{\"model\": \"resnet50\", \"chains\": 2000000}", &json, &err));
    EXPECT_FALSE(ScheduleRequest::FromJson(json, &request, &err));

    // Counts and the deadline are integers: a fraction is rejected, not
    // truncated to a neighbouring request's value.
    for (const char *field :
         {"\"batch\": 2.5", "\"chains\": 1.5", "\"threads\": 0.5",
          "\"deadline_ms\": 1.5",
          "\"artifacts\": {\"execution_graph_rows\": 2.5}"}) {
        ASSERT_TRUE(Json::Parse(std::string("{\"model\": \"resnet50\", ") +
                                    field + "}",
                                &json, &err));
        EXPECT_FALSE(ScheduleRequest::FromJson(json, &request, &err))
            << field;
        EXPECT_NE(err.find("an integer"), std::string::npos) << err;
    }

    // Seeds are integers below 2^64: fractions and out-of-range values
    // are rejected, never truncated; the largest seed stays exact.
    for (const char *seed : {"1e30", "1.5", "18446744073709551616"}) {
        ASSERT_TRUE(Json::Parse(std::string("{\"model\": \"resnet50\", "
                                            "\"seed\": ") +
                                    seed + "}",
                                &json, &err));
        EXPECT_FALSE(ScheduleRequest::FromJson(json, &request, &err))
            << seed;
        EXPECT_NE(err.find("seed"), std::string::npos) << err;
    }
    ASSERT_TRUE(Json::Parse(
        "{\"model\": \"resnet50\", \"seed\": 18446744073709551615}",
        &json, &err));
    ASSERT_TRUE(ScheduleRequest::FromJson(json, &request, &err)) << err;
    EXPECT_EQ(request.seed, UINT64_MAX);

    // AsInt and AsU64 saturate instead of invoking UB on out-of-range
    // values; persisted results read their seed through AsU64.
    EXPECT_EQ(Json::Number(1e300).AsInt(), INT64_MAX);
    EXPECT_EQ(Json::Number(-1e300).AsInt(), INT64_MIN);
    EXPECT_EQ(Json::U64(~0ULL).AsInt(), INT64_MAX);
    EXPECT_EQ(Json::Number(1e30).AsU64(), UINT64_MAX);
    EXPECT_EQ(Json::Number(-1.0).AsU64(7), 7u);
    EXPECT_EQ(Json::Number(std::nan("")).AsU64(7), 7u);
    ScheduleResult result;
    ASSERT_TRUE(Json::Parse("{\"ok\": false, \"seed\": 1e30}", &json, &err));
    ASSERT_TRUE(ScheduleResult::FromJson(json, &result, &err)) << err;
    EXPECT_EQ(result.seed, UINT64_MAX);
}

TEST(RequestJson, SeedFromJsonIsTheOneSeedRule)
{
    // Request "seed" and a sweep's "seeds" axis share this rule: the
    // largest u64 is accepted exactly, 2^64 and fractions are rejected
    // with the key named.
    std::string err;
    Json json;
    std::uint64_t seed = 0;
    ASSERT_TRUE(Json::Parse("18446744073709551615", &json, &err));
    ASSERT_TRUE(SeedFromJson(json, "seeds", &seed, &err)) << err;
    EXPECT_EQ(seed, UINT64_MAX);
    ASSERT_TRUE(Json::Parse("9223372036854775808", &json, &err));
    ASSERT_TRUE(SeedFromJson(json, "seeds", &seed, &err)) << err;
    EXPECT_EQ(seed, 9223372036854775808ULL);
    for (const char *bad : {"18446744073709551616", "1.5", "-1", "\"7\""}) {
        ASSERT_TRUE(Json::Parse(bad, &json, &err)) << bad;
        seed = 42;
        err.clear();
        EXPECT_FALSE(SeedFromJson(json, "seeds", &seed, &err)) << bad;
        EXPECT_EQ(seed, 42u) << bad;
        EXPECT_NE(err.find("\"seeds\""), std::string::npos) << err;
    }
}

TEST(ResultJson, RoundTripIsBitExactOnLatencyAndEnergy)
{
    Scheduler scheduler;
    ScheduleRequest request = TinyRequest(21);
    request.artifacts.instructions = true;
    ScheduleResult result = scheduler.Schedule(request);
    ASSERT_TRUE(result.ok) << result.error;

    // Through text, as somac does it.
    const std::string text = result.ToJson().Dump(2);
    Json json;
    ScheduleResult back;
    std::string err;
    ASSERT_TRUE(Json::Parse(text, &json, &err)) << err;
    ASSERT_TRUE(ScheduleResult::FromJson(json, &back, &err)) << err;

    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.model, result.model);
    EXPECT_EQ(back.scheduler, result.scheduler);
    EXPECT_EQ(back.seed, result.seed);
    EXPECT_EQ(back.scheme, result.scheme);
    EXPECT_EQ(back.cost, result.cost);  // bit-for-bit
    EXPECT_EQ(back.report.latency, result.report.latency);
    EXPECT_EQ(back.report.core_energy_j, result.report.core_energy_j);
    EXPECT_EQ(back.report.dram_energy_j, result.report.dram_energy_j);
    EXPECT_EQ(back.report.num_tiles, result.report.num_tiles);
    EXPECT_EQ(back.stage1_report.valid, result.stage1_report.valid);
    EXPECT_EQ(back.stage1_report.latency, result.stage1_report.latency);
    EXPECT_EQ(back.asm_text, result.asm_text);
    EXPECT_EQ(back.num_instructions, result.num_instructions);
    EXPECT_EQ(back.stats.iterations, result.stats.iterations);
}

// ------------------------------------------------------------ registries

TEST(Registries, BuiltinsArePresent)
{
    Scheduler scheduler;
    EXPECT_TRUE(scheduler.models().Has("resnet50"));
    EXPECT_TRUE(scheduler.models().Has("gpt2xl-decode"));
    EXPECT_TRUE(scheduler.hardware().Has("edge"));
    EXPECT_TRUE(scheduler.hardware().Has("cloud"));
    EXPECT_TRUE(scheduler.schedulers().Has("soma"));
    EXPECT_TRUE(scheduler.schedulers().Has("cocco"));
    EXPECT_TRUE(scheduler.schedulers().Has("lfa-only"));
}

TEST(Registries, UnknownNamesErrorWithCandidates)
{
    Scheduler scheduler;
    ScheduleRequest request;
    request.model = "resnet999";
    ScheduleResult result = scheduler.Schedule(request);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("resnet999"), std::string::npos);
    EXPECT_NE(result.error.find("resnet50"), std::string::npos);

    request = TinyRequest(1);
    request.hardware = "tpu";
    result = scheduler.Schedule(request);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("tpu"), std::string::npos);
    EXPECT_NE(result.error.find("edge"), std::string::npos);

    request = TinyRequest(1);
    request.scheduler = "magic";
    result = scheduler.Schedule(request);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("magic"), std::string::npos);
    EXPECT_NE(result.error.find("soma"), std::string::npos);
}

TEST(Registries, CustomEntriesServeRequests)
{
    Scheduler scheduler;
    scheduler.models().Register("tiny", [](int) {
        GraphBuilder b("tiny", 1);
        LayerId c = b.InputConv("c", ExtShape{3, 16, 16}, 8, 3, 1, 1);
        b.MarkOutput(c);
        return b.Take();
    });
    scheduler.hardware().Register("nano", [] {
        HardwareConfig hw = EdgeAccelerator();
        hw.name = "nano";
        hw.cores = 2;
        return hw;
    });
    ScheduleRequest request;
    request.model = "tiny";
    request.hardware = "nano";
    request.profile = SearchProfile::kQuick;
    ScheduleResult result = scheduler.Schedule(request);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.model, "tiny");
    EXPECT_EQ(result.hardware, "nano");
}

TEST(Registries, LfaOnlySchedulerRuns)
{
    Scheduler scheduler;
    ScheduleRequest request = TinyRequest(9);
    request.scheduler = "lfa-only";
    ScheduleResult result = scheduler.Schedule(request);
    ASSERT_TRUE(result.ok) << result.error;
    // No DLSA exploration: stage-1 view is the final view.
    EXPECT_FALSE(result.stage1_report.valid);
    EXPECT_GT(result.report.latency, 0.0);
}

// ---------------------------------------------------------------- facade

TEST(SchedulerFacade, MatchesLegacyRunSomaBitForBit)
{
    std::shared_ptr<const Graph> graph = TinyNet();
    HardwareConfig hw = EdgeAccelerator();
    SomaSearchResult legacy = RunSoma(*graph, hw, QuickSomaOptions(13));

    Scheduler scheduler;
    ScheduleRequest request;
    request.graph = graph;
    request.profile = SearchProfile::kQuick;
    request.seed = 13;
    ScheduleResult result = scheduler.Schedule(request);

    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_TRUE(legacy.report.valid);
    EXPECT_EQ(result.report.latency, legacy.report.latency);
    EXPECT_EQ(result.report.EnergyJ(), legacy.report.EnergyJ());
    EXPECT_EQ(result.cost, legacy.cost);
    EXPECT_EQ(result.scheme, legacy.lfa.ToString(*graph));
}

TEST(SchedulerFacade, InvalidHardwareOverridesFailTheRequest)
{
    Scheduler scheduler;
    const ScheduleRequest plain = TinyRequest(7);
    const ScheduleResult reference = scheduler.Schedule(plain);
    ASSERT_TRUE(reference.ok) << reference.error;

    // Every nonzero override is validated: none runs on the preset or
    // on infinite bandwidth, and none shares the preset's fingerprint
    // (and so its cached result).
    std::vector<ScheduleRequest> invalid(4, plain);
    invalid[0].gbuf_bytes = -4 * (1LL << 20);
    invalid[1].dram_gbps = -5.0;
    invalid[2].dram_gbps = std::numeric_limits<double>::infinity();
    invalid[3].dram_gbps = std::numeric_limits<double>::quiet_NaN();
    for (const ScheduleRequest &request : invalid) {
        const ScheduleResult result = scheduler.Schedule(request);
        EXPECT_FALSE(result.ok);
        EXPECT_NE(result.error.find("invalid"), std::string::npos)
            << result.error;
        EXPECT_NE(request.Fingerprint(), plain.Fingerprint());
    }

    // Overrides equal to the preset run the preset's search.
    ScheduleRequest same_as_preset = plain;
    same_as_preset.gbuf_bytes = EdgeAccelerator().gbuf_bytes;
    same_as_preset.dram_gbps = EdgeAccelerator().dram_gbps;
    const ScheduleResult result = scheduler.Schedule(same_as_preset);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.scheme, reference.scheme);
    EXPECT_EQ(result.cost, reference.cost);
}

TEST(SchedulerFacade, ProgressEventsCoverTheLifecycle)
{
    Scheduler scheduler;
    ScheduleRequest request = TinyRequest(5);
    std::vector<std::string> phases;
    request.on_progress = [&phases](const ProgressEvent &event) {
        phases.push_back(event.phase);
    };
    ScheduleResult result = scheduler.Schedule(request);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(phases.size(), 4u);
    EXPECT_EQ(phases[0], "build");
    EXPECT_EQ(phases[1], "search");
    EXPECT_EQ(phases[2], "artifacts");
    EXPECT_EQ(phases[3], "done");
    EXPECT_GT(result.stats.search_seconds, 0.0);
    EXPECT_GE(result.stats.total_seconds, result.stats.search_seconds);
    EXPECT_GT(result.stats.iterations, 0);
}

// ----------------------------------------------------------- concurrency

TEST(SchedulerFacade, ConcurrentCallersGetTheSerialResult)
{
    Scheduler scheduler;
    const ScheduleRequest request = TinyRequest(42);
    const ScheduleResult reference = scheduler.Schedule(request);
    ASSERT_TRUE(reference.ok) << reference.error;

    // Same-seed copies with different driver-thread counts race with
    // different-seed noise on one Scheduler; every same-seed result
    // must be bit-identical to the serial reference.
    constexpr int kCopies = 3;
    std::vector<ScheduleResult> same(kCopies), noise(kCopies);
    std::vector<std::thread> callers;
    for (int i = 0; i < kCopies; ++i) {
        callers.emplace_back([&, i] {
            ScheduleRequest copy = request;
            copy.threads = i + 1;
            same[i] = scheduler.Schedule(copy);
        });
        callers.emplace_back([&, i] {
            noise[i] = scheduler.Schedule(TinyRequest(100 + i));
        });
    }
    for (std::thread &t : callers) t.join();
    for (const ScheduleResult &r : same) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.scheme, reference.scheme);
        EXPECT_EQ(r.cost, reference.cost);
        EXPECT_EQ(r.report.latency, reference.report.latency);
        EXPECT_EQ(r.report.EnergyJ(), reference.report.EnergyJ());
    }
    for (const ScheduleResult &r : noise) EXPECT_TRUE(r.ok) << r.error;
}

}  // namespace
}  // namespace soma

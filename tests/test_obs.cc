/**
 * @file
 * Observability layer tests: exact-count metrics under concurrent
 * writers (the TSan-exercised stress behind the registry's
 * no-lost-increments contract), canonical-dump fixpoints, Chrome
 * trace-event output, SOMA_PROF_SCOPE aggregation semantics — and the
 * end-to-end pin that attaching a tracer to a ScheduleRequest never
 * changes the result bytes.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/scheduler.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

// ------------------------------------------------------------ metrics

TEST(Metrics, CounterGaugeHistogramBasics)
{
    obs::MetricsRegistry registry;
    obs::Counter &c = registry.GetCounter("test.count");
    c.Add();
    c.Add(9);
    EXPECT_EQ(c.value(), 10u);
    c.Set(3);
    EXPECT_EQ(c.value(), 3u);

    obs::Gauge &g = registry.GetGauge("test.share");
    g.Set(0.25);
    EXPECT_DOUBLE_EQ(g.value(), 0.25);

    obs::Histogram &h =
        registry.GetHistogram("test.latency", {1.0, 2.0, 4.0});
    for (double v : {0.5, 0.5, 1.5, 3.0}) h.Observe(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 5.5);
    // Half the mass sits in the first bucket: p50 <= its bound.
    EXPECT_LE(h.Percentile(0.5), 1.0);
    EXPECT_GT(h.Percentile(0.99), 1.0);
}

TEST(Metrics, GetReturnsTheSameInstancePerName)
{
    obs::MetricsRegistry registry;
    obs::Counter &a = registry.GetCounter("same");
    obs::Counter &b = registry.GetCounter("same");
    EXPECT_EQ(&a, &b);
    a.Add(5);
    EXPECT_EQ(b.value(), 5u);
}

// The exact-count contract: concurrent Add/Observe never lose updates.
// Run under the TSan CI job this doubles as the data-race probe for the
// whole metrics hot path.
TEST(Metrics, ConcurrentWritersKeepExactTotals)
{
    constexpr int kThreads = 8;
    constexpr int kIters = 10000;
    obs::MetricsRegistry registry;
    obs::Counter &counter = registry.GetCounter("stress.count");
    obs::Histogram &histogram =
        registry.GetHistogram("stress.lat", {1.0, 10.0});
    obs::Gauge &gauge = registry.GetGauge("stress.gauge");

    std::vector<std::thread> team;
    team.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        team.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                counter.Add();
                histogram.Observe(0.5);
                gauge.Set(static_cast<double>(t));
            }
        });
    }
    for (std::thread &t : team) t.join();

    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(histogram.count(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_DOUBLE_EQ(histogram.sum(), 0.5 * kThreads * kIters);
    EXPECT_GE(gauge.value(), 0.0);
    EXPECT_LT(gauge.value(), kThreads);
}

TEST(Metrics, RegistryDumpIsCanonicalAndAFixpoint)
{
    obs::MetricsRegistry registry;
    // Register in non-sorted order; the dump must come out sorted.
    registry.GetCounter("z.last").Add(2);
    registry.GetCounter("a.first").Add(1);
    registry.GetGauge("m.middle").Set(0.5);
    registry.GetHistogram("h.lat", {1.0}).Observe(0.25);

    const std::string dump = registry.ToJson().CanonicalDump();
    EXPECT_LT(dump.find("a.first"), dump.find("h.lat"));
    EXPECT_LT(dump.find("h.lat"), dump.find("m.middle"));
    EXPECT_LT(dump.find("m.middle"), dump.find("z.last"));

    // Dump -> Parse -> CanonicalDump is byte-stable, and a second dump
    // of the unchanged registry is identical.
    Json parsed;
    std::string err;
    ASSERT_TRUE(Json::Parse(dump, &parsed, &err)) << err;
    EXPECT_EQ(parsed.CanonicalDump(), dump);
    EXPECT_EQ(registry.ToJson().CanonicalDump(), dump);

    // Histograms export {count, sum, p50, p95, p99}.
    const Json snapshot = registry.ToJson();
    const Json *h = snapshot.Find("h.lat");
    ASSERT_NE(h, nullptr);
    EXPECT_NE(h->Find("count"), nullptr);
    EXPECT_NE(h->Find("sum"), nullptr);
    EXPECT_NE(h->Find("p50"), nullptr);
    EXPECT_NE(h->Find("p95"), nullptr);
    EXPECT_NE(h->Find("p99"), nullptr);

    registry.Reset();
    EXPECT_EQ(registry.ToJson().CanonicalDump(), "{}");
}

// -------------------------------------------------------------- trace

TEST(Trace, SpanScopesEmitChromeCompleteEvents)
{
    obs::Tracer tracer;
    {
        obs::SpanScope outer(&tracer, "phase.outer");
        outer.Arg("iterations", static_cast<std::int64_t>(7));
        outer.Arg("cost", 1.5);
        outer.Arg("model", std::string("tiny"));
        obs::SpanScope inner(&tracer, "phase.inner");
    }
    tracer.AddAggregate("phase.aggregate", obs::MonotonicNow(), 2500,
                        {{"calls", Json::Int(3)}});
    EXPECT_EQ(tracer.NumEvents(), 3u);

    const Json json = tracer.ToJson();
    const Json *events = json.Find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 3u);
    std::set<std::string> names;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &e = events->at(i);
        names.insert(e.Find("name")->AsString());
        EXPECT_EQ(e.Find("ph")->AsString(), "X");
        EXPECT_GE(e.Find("ts")->AsDouble(), 0.0);
        EXPECT_GE(e.Find("dur")->AsDouble(), 0.0);
        ASSERT_NE(e.Find("tid"), nullptr);
        ASSERT_NE(e.Find("pid"), nullptr);
    }
    EXPECT_EQ(names, (std::set<std::string>{
                         "phase.outer", "phase.inner", "phase.aggregate"}));

    // The inner span closed first: events are appended in close order.
    EXPECT_EQ(events->at(0).Find("name")->AsString(), "phase.inner");

    // The outer span carried its buffered args.
    const Json &outer = events->at(1);
    ASSERT_NE(outer.Find("args"), nullptr);
    EXPECT_EQ(outer.Find("args")->Find("iterations")->AsInt(), 7);
}

TEST(Trace, NullTracerIsACompleteNoOp)
{
    obs::SpanScope span(nullptr, "ignored");
    span.Arg("key", static_cast<std::int64_t>(1));
    span.Arg("cost", 2.0);
    // Nothing to assert beyond "does not crash / allocate a tracer":
    // the scope must be destructible without ever touching a Tracer.
}

// --------------------------------------------------------------- prof

std::uint64_t
ProbeOnce(std::uint64_t x)
{
    SOMA_PROF_SCOPE("test.probe");
    return x * 2654435761ULL + 1;
}

std::uint64_t
DupSiteA(std::uint64_t x)
{
    SOMA_PROF_SCOPE("test.dup");
    return x + 1;
}

std::uint64_t
DupSiteB(std::uint64_t x)
{
    SOMA_PROF_SCOPE("test.dup");
    return x + 2;
}

std::uint64_t
ProfCalls(const std::vector<obs::ProfEntry> &snapshot,
          const std::string &name)
{
    for (const obs::ProfEntry &e : snapshot)
        if (e.name == name) return e.calls;
    return 0;
}

TEST(Prof, DisabledScopesRecordNothing)
{
    ASSERT_FALSE(obs::ProfilingEnabled());
    volatile std::uint64_t sink = ProbeOnce(1);
    (void)sink;
    const std::vector<obs::ProfEntry> before = obs::ProfSnapshot();
    for (int i = 0; i < 100; ++i) sink = ProbeOnce(sink);
    const std::vector<obs::ProfEntry> after = obs::ProfSnapshot();
    EXPECT_EQ(ProfCalls(after, "test.probe"),
              ProfCalls(before, "test.probe"));
}

TEST(Prof, EnableScopeRecordsCallsAndFoldsDuplicateSites)
{
    const std::vector<obs::ProfEntry> before = obs::ProfSnapshot();
    {
        obs::ProfEnableScope hold;
        ASSERT_TRUE(obs::ProfilingEnabled());
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 50; ++i) sink = ProbeOnce(sink);
        for (int i = 0; i < 3; ++i) sink = DupSiteA(sink);
        for (int i = 0; i < 4; ++i) sink = DupSiteB(sink);
        (void)sink;
    }
    EXPECT_FALSE(obs::ProfilingEnabled());
    const std::vector<obs::ProfEntry> after = obs::ProfSnapshot();
    EXPECT_EQ(ProfCalls(after, "test.probe"),
              ProfCalls(before, "test.probe") + 50);
    // Two static sites share the name: the snapshot folds them.
    EXPECT_EQ(ProfCalls(after, "test.dup"),
              ProfCalls(before, "test.dup") + 7);
    EXPECT_GE(obs::ProfNanos(after, "test.probe"),
              obs::ProfNanos(before, "test.probe"));

    // Snapshots are name-sorted.
    for (std::size_t i = 1; i < after.size(); ++i)
        EXPECT_LT(after[i - 1].name, after[i].name);
}

// --------------------------------------------- end-to-end (pipeline)

/** Small 5-layer CNN (the test_api workload): big enough to exercise
 *  every pipeline phase, cheap enough to schedule twice per test. */
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

// The determinism contract of the whole layer: attaching a tracer
// changes no result byte outside the wall-clock .stats block, and the
// trace itself covers every pipeline phase.
TEST(ObsIntegration, TracingDoesNotChangeResultBytes)
{
    Scheduler scheduler;
    const ScheduleResult plain = scheduler.Schedule(TinyRequest(7));
    ASSERT_TRUE(plain.ok) << plain.error;

    obs::Tracer tracer;
    ScheduleRequest traced_request = TinyRequest(7);
    traced_request.trace = &tracer;
    // The tracer hook is observational: it must not enter the
    // fingerprint (a traced request hits the same cache entries).
    EXPECT_EQ(traced_request.Fingerprint(), TinyRequest(7).Fingerprint());
    const ScheduleResult traced = scheduler.Schedule(traced_request);
    ASSERT_TRUE(traced.ok) << traced.error;
    EXPECT_GT(tracer.NumEvents(), 0u);

    Json a = plain.ToJson();
    Json b = traced.ToJson();
    a.Erase("stats");  // wall-clock seconds: legitimately differ
    b.Erase("stats");
    EXPECT_EQ(a.CanonicalDump(), b.CanonicalDump());

    std::set<std::string> names;
    const Json trace_json = tracer.ToJson();
    const Json *events = trace_json.Find("traceEvents");
    ASSERT_NE(events, nullptr);
    for (std::size_t i = 0; i < events->size(); ++i)
        names.insert(events->at(i).Find("name")->AsString());
    for (const char *phase :
         {"pipeline.build", "pipeline.search", "lfa.stage", "parse.lfa",
          "alloc.search", "alloc.iteration", "sa.window",
          "eval.timeline"})
        EXPECT_TRUE(names.count(phase)) << "missing span: " << phase;
}

TEST(ObsIntegration, PipelineFeedsTheGlobalRegistry)
{
    auto &registry = obs::MetricsRegistry::Global();
    const std::uint64_t requests_before =
        registry.GetCounter("pipeline.requests").value();

    obs::Tracer tracer;
    ScheduleRequest request = TinyRequest(11);
    request.trace = &tracer;
    Scheduler scheduler;
    const ScheduleResult result = scheduler.Schedule(request);
    ASSERT_TRUE(result.ok) << result.error;

    EXPECT_EQ(registry.GetCounter("pipeline.requests").value(),
              requests_before + 1);
    EXPECT_GT(registry.GetCounter("pipeline.search_nanos").value(), 0u);
    // Traced runs hold a ProfEnableScope, so the hot-path prof sites
    // are measured and exported per site.
    EXPECT_GT(registry.GetCounter("prof.eval.timeline.nanos").value(), 0u);
    EXPECT_GT(registry.GetCounter("prof.eval.timeline.calls").value(), 0u);
    EXPECT_GT(registry.GetHistogram("pipeline.search_seconds").count(),
              0u);
}

}  // namespace
}  // namespace soma

/**
 * @file
 * The three workloads and the timed passes that issue them.
 *
 *  - cnn-default: the Fig. 6 edge CNN subset at the default profile,
 *    soma and cocco per model, one client on one soma::Scheduler.
 *    Parse-bound search; yields the SoMa-vs-Cocco ratio.
 *  - full-banked: resnet50 and gpt2s-decode at the full profile under
 *    the banked memory model with validation, one client. Gives the
 *    DLSA stage, the timeline and the banked replay their largest share.
 *  - sweep-cache: a DSE grid through soma::SchedulerService with an
 *    on-disk cache, 4 closed-loop clients issuing every point twice in
 *    a seed-shuffled order, then a fresh service replaying the grid
 *    from disk. The only workload through src/service.
 *
 * The workload seed fixes every request seed and the issue order; the
 * program only ever sees the generated requests.
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <thread>

#include "api/scheduler.h"
#include "bench.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

using soma::ScheduleRequest;
using soma::SearchProfile;
using Clock = std::chrono::steady_clock;

constexpr soma::Bytes kMiB = 1024 * 1024;

std::uint64_t
SplitMix64(std::uint64_t *state)
{
    std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Request seeds stay small positive integers (readable in logs). */
std::uint64_t
NextRequestSeed(std::uint64_t *state)
{
    return 1 + SplitMix64(state) % 1000000;
}

double
SecondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
ProcessCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/** after - before, per site (sites absent before count from zero). */
std::vector<soma::obs::ProfEntry>
ProfGrowth(const std::vector<soma::obs::ProfEntry> &before)
{
    std::vector<soma::obs::ProfEntry> out = soma::obs::ProfSnapshot();
    for (soma::obs::ProfEntry &e : out) {
        for (const soma::obs::ProfEntry &b : before) {
            if (b.name != e.name) continue;
            e.calls -= b.calls;
            e.nanos -= b.nanos;
            break;
        }
    }
    return out;
}

/** The metrics-registry counters the memory validation feeds. */
const char *const kRegistryCounters[] = {
    "eval.dram.row_hits", "eval.dram.row_misses", "eval.dram.row_conflicts"};

std::map<std::string, double>
ReadCounters()
{
    std::map<std::string, double> out;
    auto &reg = soma::obs::MetricsRegistry::Global();
    for (const char *name : kRegistryCounters)
        out[name] = static_cast<double>(reg.GetCounter(name).value());
    return out;
}

/** Issue one request, optionally traced, and time it. */
void
Issue(const ScheduleRequest &point, bool traced,
      const std::function<soma::ScheduleResult(const ScheduleRequest &,
                                                std::string *)> &call,
      Record *r)
{
    ScheduleRequest req = point;
    if (traced) {
        r->tracer = std::make_unique<soma::obs::Tracer>();
        req.trace = r->tracer.get();
    }
    const auto t0 = Clock::now();
    {
        soma::obs::SpanScope span(req.trace, "bench.request");
        r->result = call(req, &r->text);
    }
    r->latency_s = SecondsBetween(t0, Clock::now());
}

/** A facade with the workload's requests, each carrying its graph
 *  built once through the facade's model registry (as a DSE script
 *  that schedules one model many times would). */
struct FacadeSetup {
    std::unique_ptr<soma::Scheduler> scheduler;
    std::vector<ScheduleRequest> requests;
};

FacadeSetup
SetUpFacade(const Workload &w)
{
    FacadeSetup s;
    s.scheduler = std::make_unique<soma::Scheduler>();
    std::map<std::pair<std::string, int>, std::shared_ptr<const soma::Graph>>
        graphs;
    for (const ScheduleRequest &point : w.points) {
        std::shared_ptr<const soma::Graph> &graph =
            graphs[{point.model, point.batch}];
        soma::Graph built;
        std::string err;
        if (!graph &&
            s.scheduler->models().Build(point.model, point.batch, &built,
                                        &err))
            graph = std::make_shared<const soma::Graph>(std::move(built));
        s.requests.push_back(point);
        s.requests.back().graph = graph;
    }
    return s;
}

Pass
RunFacadePass(const Workload &w, bool traced)
{
    Pass pass;
    pass.traced = traced;
    const FacadeSetup setup = SetUpFacade(w);
    soma::Scheduler &scheduler = *setup.scheduler;
    auto call = [&scheduler](const ScheduleRequest &req, std::string *) {
        return scheduler.Schedule(req);
    };
    std::optional<soma::obs::ProfEnableScope> prof_hold;
    if (traced) prof_hold.emplace();
    const auto prof_before = soma::obs::ProfSnapshot();
    const auto counters_before = ReadCounters();

    const auto t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    for (int i = 0; i < static_cast<int>(w.points.size()); ++i) {
        Record r;
        r.point = i;
        const auto before =
            traced ? soma::obs::ProfSnapshot()
                   : std::vector<soma::obs::ProfEntry>{};
        const double c0 = ProcessCpuSeconds();
        Issue(setup.requests[i], traced, call, &r);
        r.cpu_s = ProcessCpuSeconds() - c0;
        if (traced) r.prof = ProfGrowth(before);
        pass.records.push_back(std::move(r));
    }
    pass.cpu_s = ProcessCpuSeconds() - cpu0;
    pass.wall_s = SecondsBetween(t0, Clock::now());

    if (traced) {
        pass.prof = ProfGrowth(prof_before);
        for (const auto &kv : ReadCounters())
            pass.counters[kv.first] = kv.second - counters_before.at(kv.first);
    }
    return pass;
}

/** Serve @p order through @p service from w.clients closed-loop
 *  clients; records land in @p out at their order index. */
void
ServeClosedLoop(const Workload &w, soma::SchedulerService &service,
                const std::vector<int> &order, bool traced,
                Clock::time_point t0, Served cached_as,
                std::vector<Record> *out)
{
    out->resize(order.size());
    std::vector<double> sent(order.size(), 0.0);
    std::atomic<std::size_t> next{0};
    auto call = [&service](const ScheduleRequest &req, std::string *text) {
        return service.Schedule(req, text);
    };
    auto client = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= order.size()) return;
            Record &r = (*out)[i];
            r.point = order[i];
            sent[i] = SecondsBetween(t0, Clock::now());
            Issue(w.points[order[i]], traced, call, &r);
        }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < w.clients; ++c) threads.emplace_back(client);
    for (std::thread &t : threads) t.join();

    // Only a search leaves the in-process payload attached. A cached
    // reply sent before its point's search replied was coalesced onto
    // that search; one sent after it was a plain cache hit.
    std::vector<double> replied(w.points.size(), 1e300);
    for (std::size_t i = 0; i < out->size(); ++i) {
        Record &r = (*out)[i];
        r.served = r.result.graph ? Served::kSearched : cached_as;
        if (r.served == Served::kSearched)
            replied[r.point] = std::min(replied[r.point],
                                        sent[i] + r.latency_s);
    }
    if (cached_as != Served::kMemoryHit) return;
    for (std::size_t i = 0; i < out->size(); ++i) {
        Record &r = (*out)[i];
        if (r.served == Served::kMemoryHit && sent[i] < replied[r.point])
            r.served = Served::kCoalesced;
    }
}

/**
 * Load every model of @p w into the service's graph cache and build
 * each graph's lazy consumer index, before any client runs. The graph
 * cache hands one Graph to concurrent requests, and Graph::Consumers
 * fills its index on first use without a lock: concurrent first uses
 * race and can corrupt the heap. Priming keeps the timed region clear
 * of that bug until src/ synchronizes the index.
 */
void
PrimeGraphs(const Workload &w, soma::SchedulerService *service)
{
    for (const ScheduleRequest &req : w.points) {
        std::string err;
        std::shared_ptr<const soma::Graph> graph = service->graph_cache().Get(
            req.model, req.batch, service->scheduler().models(), &err);
        if (graph && graph->NumLayers() > 0) graph->Consumers(0);
    }
}

Pass
RunServicePass(const Workload &w, const std::string &cache_dir,
               bool traced)
{
    Pass pass;
    pass.traced = traced;
    std::filesystem::remove_all(cache_dir);

    // Every point w.copies times, in an order fixed by the seed.
    std::vector<int> order;
    for (int c = 0; c < w.copies; ++c)
        for (int p = 0; p < static_cast<int>(w.points.size()); ++p)
            order.push_back(p);
    std::uint64_t state = w.order_seed;
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[SplitMix64(&state) % i]);
    // The replay issues each point once, in first-appearance order.
    std::vector<int> replay;
    std::vector<char> seen(w.points.size(), 0);
    for (int p : order)
        if (!seen[p]++) replay.push_back(p);

    soma::ServiceOptions opts;
    opts.cache_dir = cache_dir;
    soma::SchedulerService first(opts), replayer(opts);
    PrimeGraphs(w, &first);
    PrimeGraphs(w, &replayer);
    std::optional<soma::obs::ProfEnableScope> prof_hold;
    if (traced) prof_hold.emplace();
    const auto prof_before = soma::obs::ProfSnapshot();

    const auto t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    std::vector<Record> cold, warm;
    ServeClosedLoop(w, first, order, traced, t0, Served::kMemoryHit, &cold);
    ServeClosedLoop(w, replayer, replay, traced, t0, Served::kDiskHit,
                    &warm);
    pass.cpu_s = ProcessCpuSeconds() - cpu0;
    pass.services = {first.stats(), replayer.stats()};
    pass.wall_s = SecondsBetween(t0, Clock::now());
    if (traced) pass.prof = ProfGrowth(prof_before);

    for (Record &r : cold) pass.records.push_back(std::move(r));
    for (Record &r : warm) pass.records.push_back(std::move(r));
    std::filesystem::remove_all(cache_dir);
    return pass;
}

ScheduleRequest
BaseRequest(const std::string &model, const std::string &scheduler,
            SearchProfile profile, std::uint64_t seed)
{
    ScheduleRequest req;
    req.model = model;
    req.hardware = "edge";
    req.scheduler = scheduler;
    req.profile = profile;
    req.seed = seed;
    return req;
}

}  // namespace

bool
MakeWorkload(const std::string &name, std::uint64_t seed, int seed_set,
             Workload *out)
{
    Workload w;
    w.name = name;
    std::uint64_t state = seed;
    for (int i = 0; i <= seed_set; ++i) state = SplitMix64(&state);
    if (name == "cnn-default") {
        for (const char *model : {"resnet50", "resnet101", "ires",
                                  "randwire"}) {
            const std::uint64_t s = NextRequestSeed(&state);
            for (const char *sched : {"soma", "cocco"})
                w.points.push_back(
                    BaseRequest(model, sched, SearchProfile::kDefault, s));
        }
    } else if (name == "full-banked") {
        for (const char *model : {"resnet50", "gpt2s-decode"}) {
            ScheduleRequest req = BaseRequest(
                model, "soma", SearchProfile::kFull, NextRequestSeed(&state));
            req.memory_model = "banked";
            req.validate_memory = true;
            w.points.push_back(req);
        }
    } else if (name == "sweep-cache") {
        const std::uint64_t seeds[] = {NextRequestSeed(&state),
                                       NextRequestSeed(&state)};
        for (const char *model : {"resnet50", "resnet101", "randwire",
                                  "ires", "gpt2s-decode"})
            for (soma::Bytes gbuf_mib : {4, 8})
                for (double gbps : {8.0, 16.0})
                    for (std::uint64_t s : seeds) {
                        ScheduleRequest req = BaseRequest(
                            model, "soma", SearchProfile::kQuick, s);
                        req.gbuf_bytes = gbuf_mib * kMiB;
                        req.dram_gbps = gbps;
                        req.threads = 1;
                        w.points.push_back(req);
                    }
        w.through_service = true;
        w.copies = 2;
        w.clients = 4;
        w.order_seed = SplitMix64(&state);
    } else {
        return false;
    }
    *out = std::move(w);
    return true;
}

double
TimeSetup(const Workload &w, const std::string &work_dir, int rep)
{
    // The same steps a pass takes before its first request.
    if (!w.through_service) {
        const auto t0 = Clock::now();
        const FacadeSetup setup = SetUpFacade(w);
        return SecondsBetween(t0, Clock::now());
    }
    soma::ServiceOptions opts;
    opts.cache_dir = work_dir + "/setup-" + std::to_string(rep);
    const auto t0 = Clock::now();
    soma::SchedulerService first(opts), replayer(opts);
    PrimeGraphs(w, &first);
    PrimeGraphs(w, &replayer);
    return SecondsBetween(t0, Clock::now());
}

Pass
RunPass(const Workload &w, const std::string &work_dir, int index,
        bool traced)
{
    if (!w.through_service) return RunFacadePass(w, traced);
    return RunServicePass(w, work_dir + "/cache-" + std::to_string(index),
                          traced);
}

}  // namespace perfbench

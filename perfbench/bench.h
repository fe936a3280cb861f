/**
 * @file
 * Shared types of the end-to-end scheduling benchmark (perfbench/).
 *
 * One process runs one workload: a closed loop of scheduling requests
 * through the public API (soma::Scheduler or soma::SchedulerService),
 * repeated in timed passes until the run's time budget is spent. Every
 * result is checked by an independent oracle outside the timed region.
 * Traced passes attach an obs::Tracer to each request and diff the
 * prof sites around it; the per-layer metrics are derived from those.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/request.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "service/service.h"

namespace perfbench {

/** How a request was served. */
enum class Served {
    kSearched,   ///< ran a search (facade call or service leader)
    kCoalesced,  ///< joined a sibling that was still searching
    kMemoryHit,  ///< result-cache hit after the cold reply arrived
    kDiskHit,    ///< fresh service, entry loaded from cache_dir
};

/** One request issued in a timed pass. */
struct Record {
    int point = 0;             ///< index into Workload::points
    double latency_s = 0.0;    ///< client-observed, send to reply
    double cpu_s = 0.0;        ///< process CPU over the call (1 client)
    Served served = Served::kSearched;
    soma::ScheduleResult result;
    std::string text;          ///< serialized result (service only)
    /** Traced passes only: the request's spans (the program's and the
     *  benchmark's own) and, on single-client workloads, the prof
     *  sites' growth over the call. */
    std::unique_ptr<soma::obs::Tracer> tracer;
    std::vector<soma::obs::ProfEntry> prof;
};

/** One timed pass over a workload. */
struct Pass {
    int seed_set = 0;  ///< which request-seed set the pass issued
    bool traced = false;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::vector<Record> records;
    /** Traced passes: prof growth over the whole pass, and the
     *  metrics-registry counters the memory validation feeds. */
    std::vector<soma::obs::ProfEntry> prof;
    std::map<std::string, double> counters;
    /** Service workloads: stats of the two service instances. */
    std::vector<soma::ServiceStats> services;
    /** Oracle outcome: failed records, and searched results whose core
     *  energy re-derived with a bitwise difference (see oracle.cc). */
    int failed = 0;
    int energy_mismatches = 0;
};

/** A named workload: its distinct requests and how to issue them. */
struct Workload {
    std::string name;
    std::vector<soma::ScheduleRequest> points;
    bool through_service = false;
    /** Service workloads: copies of each point issued by the first
     *  service, the client count, and the issue-order seed. */
    int copies = 1;
    int clients = 1;
    std::uint64_t order_seed = 0;
};

/**
 * Build the named workload's requests for seed set @p seed_set of the
 * workload seed @p seed; false if the name is unknown. Seed sets let a
 * run median over many searches per point (see main.cc).
 */
bool MakeWorkload(const std::string &name, std::uint64_t seed,
                  int seed_set, Workload *out);

/**
 * Time one set-up: everything a pass does before its first request —
 * constructing the facade (or both services over a cache directory
 * under @p work_dir) and building the workload's graphs through its
 * model registry. Returns seconds.
 */
double TimeSetup(const Workload &w, const std::string &work_dir, int rep);

/** Run one timed pass (fresh facade/service, fresh cache dir). */
Pass RunPass(const Workload &w, const std::string &work_dir, int index,
             bool traced);

/** Check every record of @p pass against the oracle; fills the pass's
 *  failure count and compiler timings. */
void CheckPass(const Workload &w, Pass *pass);

/** Stable digest of a result's scheme and report (never its stats). */
std::uint64_t ResultDigest(const soma::ScheduleResult &result);

/** Per-layer metrics of a run from its traced and untraced passes. */
std::map<std::string, double> LayerMetrics(const Workload &w,
                                           const std::vector<Pass> &passes);

/** Per-layer metric names and units, in output order. */
const std::vector<std::pair<std::string, std::string>> &LayerMetricUnits();

double Median(std::vector<double> values);
double Geomean(const std::vector<double> &values);
/** Nearest-rank quantile, @p q in [0, 1]. */
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H

/**
 * @file
 * Miniature design-space exploration (Fig. 7 style) on the unified API:
 * every (bandwidth, buffer) point of the sweep becomes one
 * ScheduleRequest with hardware overrides, scheduled in grid order,
 * and the latency tables for Cocco and SoMa are printed from the
 * results.
 *
 * Run: ./build/dse_mini [model] [batch] [seed]
 */
#include <cstdlib>
#include <iostream>
#include <vector>

#include "api/scheduler.h"
#include "common/table.h"

int
main(int argc, char **argv)
{
    using namespace soma;
    std::string model = argc > 1 ? argv[1] : "resnet50";
    int batch = argc > 2 ? std::atoi(argv[2]) : 1;
    std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

    const std::vector<double> bandwidths = {8, 16, 32, 64};
    const std::vector<Bytes> buffers = {2LL << 20, 4LL << 20, 8LL << 20,
                                        16LL << 20};

    Scheduler scheduler;

    HardwareConfig base;
    std::string err;
    scheduler.hardware().Make("edge", &base, &err);
    std::cout << "DSE: " << model << " batch " << batch << " on "
              << base.PeakTops() << " TOPS edge\n";

    for (bool use_soma : {false, true}) {
        std::cout << "\n" << (use_soma ? "SoMa" : "Cocco")
                  << " latency (ms): rows = DRAM GB/s, cols = buffer MB\n";

        std::vector<std::string> header = {"GB/s \\ MB"};
        for (Bytes b : buffers)
            header.push_back(std::to_string(b >> 20));
        Table t(header);
        double best = 1e30;
        for (double bw : bandwidths) {
            std::vector<std::string> row = {FormatDouble(bw, 0)};
            for (Bytes buf : buffers) {
                ScheduleRequest request;
                request.model = model;
                request.batch = batch;
                request.hardware = "edge";
                request.gbuf_bytes = buf;
                request.dram_gbps = bw;
                request.scheduler = use_soma ? "soma" : "cocco";
                request.profile = SearchProfile::kQuick;
                request.seed = seed;
                ScheduleResult r = scheduler.Schedule(request);
                double latency = r.report.latency;  // inf when infeasible
                best = std::min(best, latency);
                row.push_back(FormatDouble(latency * 1e3, 2));
            }
            t.AddRow(row);
        }
        t.Print(std::cout);
        std::cout << "min latency " << FormatDouble(best * 1e3, 2)
                  << " ms\n";
    }
    return 0;
}

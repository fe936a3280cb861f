/**
 * @file
 * ResNet-50 on the 16 TOPS edge accelerator through the unified API:
 * schedule the Cocco baseline and the SoMa two-stage search on one
 * Scheduler, then print the Fig. 6-style comparison row and the
 * headline speedup/energy numbers.
 *
 * Run: ./build/resnet50_edge [batch] [seed]
 */
#include <cstdlib>
#include <iostream>

#include "api/scheduler.h"
#include "common/table.h"

int
main(int argc, char **argv)
{
    using namespace soma;
    int batch = argc > 1 ? std::atoi(argv[1]) : 1;
    std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

    ScheduleRequest request;
    request.model = "resnet50";
    request.batch = batch;
    request.hardware = "edge";
    request.profile = SearchProfile::kDefault;
    request.seed = seed;

    Scheduler scheduler;
    HardwareConfig hw;
    std::string err;
    scheduler.hardware().Make(request.hardware, &hw, &err);
    std::cout << "ResNet-50, batch " << batch << ", " << hw.PeakTops()
              << " TOPS edge, " << FormatBytes(hw.gbuf_bytes) << " GBUF, "
              << hw.dram_gbps << " GB/s DRAM\n\n";

    ScheduleRequest cocco_request = request;
    cocco_request.scheduler = "cocco";
    ScheduleResult cocco = scheduler.Schedule(cocco_request);
    ScheduleResult ours = scheduler.Schedule(request);
    if (!cocco.ok || !ours.ok) {
        std::cerr << "search failed: "
                  << (cocco.ok ? ours.error : cocco.error) << "\n";
        return 1;
    }

    Table t({"scheme", "latency(ms)", "energy(mJ)", "util(%)", "theory(%)",
             "avg buf", "LGs", "tiles"});
    auto row = [&](const char *name, const EvalReport &r) {
        t.AddRow({name, FormatDouble(r.latency * 1e3),
                  FormatDouble(r.EnergyJ() * 1e3),
                  FormatDouble(r.compute_util * 100, 1),
                  FormatDouble(r.theory_max_util * 100, 1),
                  FormatBytes(r.avg_buffer), std::to_string(r.num_lgs),
                  std::to_string(r.num_tiles)});
    };
    row("cocco", cocco.report);
    row("ours_1", ours.stage1_report);
    row("ours_2", ours.report);
    t.Print(std::cout);

    std::cout << "\nSoMa scheme: " << ours.scheme << "\n";
    std::cout << "speedup over cocco: "
              << FormatDouble(cocco.report.latency / ours.report.latency, 2)
              << "x, energy reduction: "
              << FormatDouble((1.0 - ours.report.EnergyJ() /
                                         cocco.report.EnergyJ()) * 100, 1)
              << "%\n";
    return 0;
}

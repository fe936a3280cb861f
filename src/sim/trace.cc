#include "sim/trace.h"

#include <algorithm>
#include <vector>

#include "sim/eval_context.h"

namespace soma {

namespace {

const char *
KindName(DramTensorKind kind)
{
    switch (kind) {
      case DramTensorKind::kWeight: return "weight";
      case DramTensorKind::kIfmap: return "ifmap";
      case DramTensorKind::kOfmap: return "ofmap";
    }
    return "?";
}

}  // namespace

void
WriteComputeTraceCsv(std::ostream &os, const Graph &graph,
                     const ParsedSchedule &parsed, const EvalReport &report)
{
    os << "pos,layer,round,lg,flg,start_us,finish_us,stall_us,ops,"
          "bytes_out\n";
    double prev_finish = 0.0;
    for (int i = 0; i < parsed.NumTiles(); ++i) {
        const TileInfo &t = parsed.tiles[i];
        double start = report.tile_times[i].start;
        double finish = report.tile_times[i].finish;
        double stall = std::max(0.0, start - prev_finish);
        prev_finish = finish;
        os << i << "," << graph.layer(t.layer).name() << "," << t.round
           << "," << t.lg << "," << t.flg << "," << start * 1e6 << ","
           << finish * 1e6 << "," << stall * 1e6 << "," << t.cost.ops
           << "," << graph.layer(t.layer).OutputBytes(t.region) << "\n";
    }
}

void
WriteDramTraceCsv(std::ostream &os, const Graph &graph,
                  const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
                  const EvalReport &report)
{
    os << "order,label,kind,bytes,start_us,finish_us,living_start,"
          "living_end\n";
    for (int r = 0; r < parsed.NumTensors(); ++r) {
        int j = dlsa.order[r];
        const DramTensor &t = parsed.tensors[j];
        TilePos living_start =
            t.IsLoad() ? dlsa.free_point[j] : t.first_use;
        TilePos living_end = t.IsLoad() ? t.fixed_end : dlsa.free_point[j];
        os << r << "," << t.Label(graph) << "," << KindName(t.kind) << ","
           << t.bytes << "," << report.tensor_times[j].start * 1e6 << ","
           << report.tensor_times[j].finish * 1e6 << "," << living_start
           << "," << living_end << "\n";
    }
}

void
WriteBufferTraceCsv(std::ostream &os, const ParsedSchedule &parsed,
                    const DlsaEncoding &dlsa)
{
    std::vector<Bytes> diff, usage;
    ComputeBufferBySlot(parsed, dlsa.free_point, &diff, &usage);
    os << "slot,buffer_bytes\n";
    for (std::size_t s = 0; s < usage.size(); ++s)
        os << s << "," << usage[s] << "\n";
}

}  // namespace soma

#include "compiler/ir.h"

#include <iomanip>
#include <sstream>
#include <unordered_map>

namespace soma {

IrModule
GenerateIr(const Graph &graph, const ParsedSchedule &parsed,
           const DlsaEncoding &dlsa)
{
    IrModule ir;
    ir.model = graph.name();
    ir.batch = graph.batch();

    for (const TileInfo &t : parsed.tiles) {
        IrTile it;
        it.layer = graph.layer(t.layer).name();
        it.lg = t.lg;
        it.flg = t.flg;
        it.round = t.round;
        it.region = t.region;
        it.seconds = t.cost.seconds;
        ir.tiles.push_back(std::move(it));
    }

    // Tensor-id -> rank in the DRAM order.
    std::unordered_map<int, int> rank;
    for (int r = 0; r < static_cast<int>(dlsa.order.size()); ++r)
        rank[dlsa.order[r]] = r;

    ir.tensors.resize(parsed.NumTensors());
    for (int j = 0; j < parsed.NumTensors(); ++j) {
        const DramTensor &t = parsed.tensors[j];
        IrTensor it;
        it.label = t.Label(graph);
        it.is_load = t.IsLoad();
        it.bytes = t.bytes;
        if (t.IsLoad()) {
            it.start = dlsa.free_point[j];
            it.end = t.fixed_end;
        } else {
            it.start = t.first_use;
            it.end = dlsa.free_point[j];
        }
        ir.tensors[rank[j]] = std::move(it);
    }

    ir.tile_deps.resize(parsed.NumTiles());
    for (int i = 0; i < parsed.NumTiles(); ++i) {
        const TileInfo &tile = parsed.tiles[i];
        for (int j = tile.load_begin; j < tile.load_end; ++j)
            ir.tile_deps[i].push_back(rank[j]);
    }
    return ir;
}

std::string
IrModule::ToText() const
{
    std::ostringstream os;
    os << "ir " << model << " " << batch << "\n";
    os << std::setprecision(17);
    for (const IrTile &t : tiles) {
        os << "tile " << t.layer << " " << t.lg << " " << t.flg << " "
           << t.round << " " << t.region.b0 << " " << t.region.b1 << " "
           << t.region.r0 << " " << t.region.r1 << " " << t.region.c0 << " "
           << t.region.c1 << " " << t.seconds << "\n";
    }
    for (const IrTensor &t : tensors) {
        os << "tensor " << t.label << " " << (t.is_load ? "load" : "store")
           << " " << t.bytes << " " << t.start << " " << t.end << "\n";
    }
    for (std::size_t i = 0; i < tile_deps.size(); ++i) {
        if (tile_deps[i].empty()) continue;
        os << "dep " << i;
        for (int r : tile_deps[i]) os << " " << r;
        os << "\n";
    }
    return os.str();
}

bool
IrModule::FromText(const std::string &text, IrModule *module,
                   std::string *error)
{
    auto fail = [&](const std::string &msg, int line_no) {
        if (error) *error = "line " + std::to_string(line_no) + ": " + msg;
        return false;
    };
    IrModule ir;
    std::istringstream is(text);
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        std::istringstream ls(line);
        std::string tok;
        if (!(ls >> tok)) continue;
        if (tok == "ir") {
            if (!(ls >> ir.model >> ir.batch))
                return fail("malformed ir header", line_no);
        } else if (tok == "tile") {
            IrTile t;
            if (!(ls >> t.layer >> t.lg >> t.flg >> t.round >> t.region.b0 >>
                  t.region.b1 >> t.region.r0 >> t.region.r1 >> t.region.c0 >>
                  t.region.c1 >> t.seconds))
                return fail("malformed tile", line_no);
            ir.tiles.push_back(std::move(t));
        } else if (tok == "tensor") {
            IrTensor t;
            std::string dir;
            if (!(ls >> t.label >> dir >> t.bytes >> t.start >> t.end))
                return fail("malformed tensor", line_no);
            if (dir != "load" && dir != "store")
                return fail("tensor direction must be load|store", line_no);
            t.is_load = (dir == "load");
            ir.tensors.push_back(std::move(t));
        } else if (tok == "dep") {
            std::size_t i;
            if (!(ls >> i)) return fail("malformed dep", line_no);
            if (ir.tile_deps.size() < ir.tiles.size())
                ir.tile_deps.resize(ir.tiles.size());
            if (i >= ir.tile_deps.size())
                return fail("dep references unknown tile", line_no);
            int r;
            while (ls >> r) ir.tile_deps[i].push_back(r);
        } else {
            return fail("unknown directive " + tok, line_no);
        }
    }
    if (ir.tile_deps.size() < ir.tiles.size())
        ir.tile_deps.resize(ir.tiles.size());
    *module = std::move(ir);
    return true;
}

}  // namespace soma

#include "notation/encoding.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace soma {

std::vector<LayerId>
LfaEncoding::FlgLayers(int g) const
{
    int begin, end;
    FlgRange(g, &begin, &end);
    return std::vector<LayerId>(order.begin() + begin, order.begin() + end);
}

void
LfaEncoding::FlgRange(int g, int *begin, int *end) const
{
    assert(g >= 0 && g < NumFlgs());
    *begin = (g == 0) ? 0 : flc_cuts[g - 1];
    *end = (g == NumFlgs() - 1) ? static_cast<int>(order.size())
                                : flc_cuts[g];
}

int
LfaEncoding::FlgOfPos(int pos) const
{
    int g = 0;
    for (int cut : flc_cuts) {
        if (pos < cut) break;
        ++g;
    }
    return g;
}

bool
LfaEncoding::StructurallyValid(const Graph &graph, std::string *why) const
{
    auto fail = [&](const char *msg) {
        if (why) *why = msg;
        return false;
    };
    const int n = graph.NumLayers();
    if (static_cast<int>(order.size()) != n)
        return fail("order arity mismatch");
    if (!graph.IsValidOrder(order)) return fail("order violates deps");
    int prev = 0;
    for (int cut : flc_cuts) {
        if (cut <= prev || cut >= n) return fail("flc cuts not sorted");
        prev = cut;
    }
    for (int cut : dram_cuts) {
        if (!std::binary_search(flc_cuts.begin(), flc_cuts.end(), cut))
            return fail("dram cut not in flc set");
    }
    for (std::size_t i = 1; i < dram_cuts.size(); ++i) {
        if (dram_cuts[i] <= dram_cuts[i - 1])
            return fail("dram cuts not sorted");
    }
    if (static_cast<int>(tiling.size()) != NumFlgs())
        return fail("tiling arity mismatch");
    for (int t : tiling) {
        if (t < 1) return fail("tiling number < 1");
    }
    return true;
}

std::string
LfaEncoding::ToString(const Graph &graph) const
{
    if (order.empty() ||
        static_cast<int>(tiling.size()) != NumFlgs()) {
        return "<empty>";
    }
    std::ostringstream os;
    os << "[";
    for (int g = 0; g < NumFlgs(); ++g) {
        int begin, end;
        FlgRange(g, &begin, &end);
        if (g > 0) {
            bool is_dram = std::binary_search(dram_cuts.begin(),
                                              dram_cuts.end(), begin);
            os << (is_dram ? " || " : " | ");
        }
        for (int p = begin; p < end; ++p) {
            if (p > begin) os << ",";
            os << graph.layer(order[p]).name();
        }
    }
    os << "]{";
    for (int g = 0; g < NumFlgs(); ++g) {
        if (g > 0) os << ",";
        os << tiling[g];
    }
    os << "}";
    return os.str();
}

LfaEncoding
MakeUnfusedLfa(const Graph &graph, const std::vector<int> &tiling_per_layer)
{
    const int n = graph.NumLayers();
    assert(static_cast<int>(tiling_per_layer.size()) == n);
    LfaEncoding lfa;
    lfa.order = graph.TopoOrder();
    for (int p = 1; p < n; ++p) {
        lfa.flc_cuts.push_back(p);
        lfa.dram_cuts.push_back(p);
    }
    for (int p = 0; p < n; ++p)
        lfa.tiling.push_back(tiling_per_layer[lfa.order[p]]);
    return lfa;
}

}  // namespace soma

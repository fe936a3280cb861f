#include "search/dlsa_heuristics.h"

#include <algorithm>
#include <numeric>

namespace soma {

DlsaEncoding
MakeSlackDlsa(const ParsedSchedule &parsed, TilePos load_lead,
              TilePos store_lag)
{
    const int d = parsed.NumTensors();
    DlsaEncoding dlsa;
    dlsa.order.resize(d);
    std::iota(dlsa.order.begin(), dlsa.order.end(), 0);
    dlsa.free_point.resize(d);
    for (int j = 0; j < d; ++j) {
        const DramTensor &t = parsed.tensors[j];
        const TilePos point = t.IsLoad() ? t.first_use - load_lead
                                         : t.first_use + store_lag;
        dlsa.free_point[j] = std::clamp<TilePos>(
            point, parsed.FreePointMin(j), parsed.FreePointMax(j));
    }
    return dlsa;
}

DlsaEncoding
MakeDoubleBufferDlsa(const ParsedSchedule &parsed)
{
    return MakeSlackDlsa(parsed, /*load_lead=*/1, /*store_lag=*/2);
}

DlsaEncoding
MakeLazyDlsa(const ParsedSchedule &parsed)
{
    return MakeSlackDlsa(parsed, /*load_lead=*/0, /*store_lag=*/1);
}

DlsaEncoding
MakeCoccoDlsa(const ParsedSchedule &parsed)
{
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(parsed);
    for (int j = 0; j < parsed.NumTensors(); ++j) {
        const DramTensor &t = parsed.tensors[j];
        if (t.kind == DramTensorKind::kWeight) {
            const TilePos lg_begin =
                parsed.lg_base[parsed.tiles[t.first_use].lg];
            dlsa.free_point[j] =
                std::clamp<TilePos>(lg_begin - 1, parsed.FreePointMin(j),
                                    parsed.FreePointMax(j));
        }
    }
    return dlsa;
}

}  // namespace soma

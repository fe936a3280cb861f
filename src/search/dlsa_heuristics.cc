#include "search/dlsa_heuristics.h"

#include <algorithm>
#include <numeric>

namespace soma {

void
MakeSlackDlsaInto(const ParsedSchedule &parsed, TilePos load_lead,
                  TilePos store_lag, DlsaEncoding *out)
{
    const int d = parsed.NumTensors();
    out->order.resize(d);
    std::iota(out->order.begin(), out->order.end(), 0);
    out->free_point.resize(d);
    for (int j = 0; j < d; ++j) {
        const DramTensor &t = parsed.tensors[j];
        if (t.IsLoad()) {
            out->free_point[j] =
                std::clamp<TilePos>(t.first_use - load_lead,
                                    parsed.FreePointMin(j),
                                    parsed.FreePointMax(j));
        } else {
            out->free_point[j] =
                std::clamp<TilePos>(t.first_use + store_lag,
                                    parsed.FreePointMin(j),
                                    parsed.FreePointMax(j));
        }
    }
}

void
MakeDoubleBufferDlsaInto(const ParsedSchedule &parsed, DlsaEncoding *out)
{
    MakeSlackDlsaInto(parsed, /*load_lead=*/1, /*store_lag=*/2, out);
}

void
MakeLazyDlsaInto(const ParsedSchedule &parsed, DlsaEncoding *out)
{
    MakeSlackDlsaInto(parsed, /*load_lead=*/0, /*store_lag=*/1, out);
}

DlsaEncoding
MakeDoubleBufferDlsa(const ParsedSchedule &parsed)
{
    DlsaEncoding dlsa;
    MakeDoubleBufferDlsaInto(parsed, &dlsa);
    return dlsa;
}

DlsaEncoding
MakeSlackDlsa(const ParsedSchedule &parsed, TilePos load_lead,
              TilePos store_lag)
{
    DlsaEncoding dlsa;
    MakeSlackDlsaInto(parsed, load_lead, store_lag, &dlsa);
    return dlsa;
}

DlsaEncoding
MakeLazyDlsa(const ParsedSchedule &parsed)
{
    DlsaEncoding dlsa;
    MakeLazyDlsaInto(parsed, &dlsa);
    return dlsa;
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

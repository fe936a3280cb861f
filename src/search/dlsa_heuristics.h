/**
 * @file
 * The classical double-buffer DLSA (Sec. III-B): prefetch each load in
 * the tile preceding its first use and give each store the following
 * tile to drain. Used as the stage-1 evaluation strategy, the stage-2
 * starting point, and Cocco's (fixed) prefetch strategy.
 */
#ifndef SOMA_SEARCH_DLSA_HEURISTICS_H
#define SOMA_SEARCH_DLSA_HEURISTICS_H

#include "notation/encoding.h"
#include "notation/parser.h"

namespace soma {

/**
 * Build the double-buffer DLSA for a parse: canonical tensor order
 * (sorted by need position), Start = first_use - 1 for loads,
 * End = first_use + 2 for stores (clamped to the legal ranges).
 */
DlsaEncoding MakeDoubleBufferDlsa(const ParsedSchedule &parsed);

/**
 * A maximally lazy DLSA: loads start at their use tile, stores drain by
 * the next tile. Minimizes buffer pressure; used in tests and as a
 * fallback when the double-buffer variant overflows a tight budget.
 */
DlsaEncoding MakeLazyDlsa(const ParsedSchedule &parsed);

/**
 * Cocco's group-granular prefetch: like the double-buffer DLSA, but
 * weight loads are issued from the start of their Layer-fusion Group
 * (Fig. 2's WA/WB/WC burst at the head of each LG). Meant for parses
 * with ParseOptions::lg_resident_weights set.
 */
DlsaEncoding MakeCoccoDlsa(const ParsedSchedule &parsed);

/**
 * Parameterized prefetch depth: loads start @p load_lead tiles before
 * first use, stores get @p store_lag tiles to drain (both clamped to the
 * legal Living Duration ranges). load_lead=1 / store_lag=2 is the
 * classical double buffer; deeper leads trade buffer for overlap — the
 * "push weights forward" move of the paper's Fig. 8 discussion.
 */
DlsaEncoding MakeSlackDlsa(const ParsedSchedule &parsed, TilePos load_lead,
                           TilePos store_lag);

}  // namespace soma

#endif  // SOMA_SEARCH_DLSA_HEURISTICS_H

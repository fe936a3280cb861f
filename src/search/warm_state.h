/**
 * @file
 * SearchWarmState: the bundle of cross-request pure-value caches a
 * search can start warm from. Both members are content-addressed memos
 * of pure functions — a FlgTiling is determined by (graph, member set,
 * Tiling Number) and a TileCost by (graph, hardware, layer, tile
 * extents, tile input bytes) — so handing one bundle to any number of
 * searches (even concurrently) never changes a single result byte; it
 * only skips re-deriving values some earlier search already derived.
 *
 * Producers: the service layer's WarmStateCache keys bundles by (graph
 * fingerprint, hardware fingerprint) and injects them into requests.
 * Consumers: SomaOptions / CoccoOptions carry the bundle down to the
 * stage caches (LfaStageOptions::tiling_cache / tile_cost_memo and the
 * Buffer Allocator's CoreArrayEvaluator). Null members simply mean
 * "start cold with a private cache" — the pre-warm-state behaviour.
 */
#ifndef SOMA_SEARCH_WARM_STATE_H
#define SOMA_SEARCH_WARM_STATE_H

#include <memory>

#include "corearray/core_array.h"
#include "tiling/tiling_cache.h"

namespace soma {

struct SearchWarmState {
    std::shared_ptr<TilingCache> tilings;
    std::shared_ptr<TileCostMemo> tile_costs;
};

}  // namespace soma

#endif  // SOMA_SEARCH_WARM_STATE_H

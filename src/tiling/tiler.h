/**
 * @file
 * Tile partitioning for Fine-grained Layer-fusion Groups (FLGs).
 *
 * Implements the paper's heuristic split (Sec. IV-A1): batch dimension
 * first (no halo), then ofmap height and width "as equal as possible",
 * and the backward receptive-field propagation that determines each
 * intermediate layer's per-tile output region inside an FLG — tiles of
 * layers feeding windowed consumers are larger than 1/T of the fmap,
 * which is the backtracking halo-overlap cost (modeled as recomputation,
 * following Cocco / DeFiNES).
 */
#ifndef SOMA_TILING_TILER_H
#define SOMA_TILING_TILER_H

#include <optional>
#include <vector>

#include "hw/hardware.h"
#include "workload/graph.h"

namespace soma {

/** Factorization of a tile count across batch/rows/cols. */
struct TileSplit {
    int batch = 1;
    int rows = 1;
    int cols = 1;
    int Total() const { return batch * rows * cols; }
};

/**
 * Pick a split of @p tiles across (batch, rows, cols) for fmaps of at
 * least (@p min_h x @p min_w): batch first, then rows/cols near-square.
 * Returns nullopt when no feasible factorization exists.
 */
std::optional<TileSplit> ChooseTileSplit(int tiles, int batch, int min_h,
                                         int min_w);

/**
 * The even ("canonical") output slice of tile @p index for a layer with
 * the given dims. Tile indices are batch-major, then rows, then cols.
 */
Region CanonicalSlice(const TileSplit &split, int index, int batch, int h,
                      int w);

/**
 * Per-layer, per-tile output regions of one FLG.
 *
 * regions[i][t] is the region of flg_layers[i]'s ofmap computed during
 * tile round t; for non-sink layers it is the union of what in-FLG
 * consumers need (recompute-halo model) and is generally larger than the
 * canonical slice.
 */
struct FlgTiling {
    bool valid = false;
    TileSplit split;
    std::vector<std::vector<Region>> regions;
};

/**
 * Compute the tiling of an FLG given its layers in computing order and
 * the Tiling Number @p tiles. Invalid when @p tiles cannot be
 * factorized for the FLG's sink layers.
 *
 * The result is *order-invariant per layer*: the sink set (and hence
 * the split) is a function of the member set alone, and each layer's
 * per-tile region is the union of what its in-FLG consumers need — a
 * bottom-up value that is identical under every dependency-legal
 * computing order of the same member set. Only the positional indexing
 * of `regions` follows @p flg_layers; the parser's group memo exploits
 * this with a permutation view (ParseScratch::GroupParse::perm).
 */
FlgTiling ComputeFlgTiling(const Graph &graph,
                           const std::vector<LayerId> &flg_layers,
                           int tiles);

/**
 * The KC-parallelism heuristic Tiling Number used by Cocco and by SoMa's
 * initial LFA solution (Sec. V-C1): the finest power-of-two granularity
 * whose tiles still provide enough spatial work to fill the core array,
 * minimized over the group's matrix layers and clamped to
 * [1, @p cap].
 */
int HeuristicParallelTiles(const Graph &graph,
                           const std::vector<LayerId> &layers,
                           const HardwareConfig &hw, int cap = 128);

}  // namespace soma

#endif  // SOMA_TILING_TILER_H

/**
 * @file
 * The Tensor-centric Notation (Sec. IV): six attributes in two groups.
 *
 * LFA (Layer-Fusion-related Attributes):
 *   1. Computing Order  — a dependency-respecting permutation of layers.
 *   2. FLC Set          — cut positions splitting the order into FLGs.
 *   3. Tiling Number    — per-FLG computing granularity.
 *   4. DRAM Cut Set     — subset of the FLC set; splits FLGs into LGs.
 *
 * DLSA (DRAM-Load-and-Store-related Attributes):
 *   5. DRAM Tensor Order — serial order of all DRAM tensors.
 *   6. Living Duration   — per-tensor (Start, End) tile IDs; the free
 *      endpoint (Start for loads, End for stores) is the search knob.
 */
#ifndef SOMA_NOTATION_ENCODING_H
#define SOMA_NOTATION_ENCODING_H

#include <string>
#include <vector>

#include "common/types.h"
#include "workload/graph.h"

namespace soma {

/**
 * Layer-fusion-related attributes. A cut at position p (1 <= p < n)
 * separates order[p-1] and order[p]; cuts are kept sorted and unique.
 * FLG g spans cut boundaries [flc[g-1], flc[g]).
 */
struct LfaEncoding {
    std::vector<LayerId> order;  ///< computing order (layer ids)
    std::vector<int> flc_cuts;   ///< sorted, in [1, n-1]
    std::vector<int> dram_cuts;  ///< sorted subset of flc_cuts
    std::vector<int> tiling;     ///< size flc_cuts.size()+1, each >= 1

    int NumFlgs() const { return static_cast<int>(flc_cuts.size()) + 1; }
    int NumLgs() const { return static_cast<int>(dram_cuts.size()) + 1; }

    /** Layer ids of FLG @p g (in computing order). */
    std::vector<LayerId> FlgLayers(int g) const;

    /** [begin, end) position range of FLG @p g within the order. */
    void FlgRange(int g, int *begin, int *end) const;

    /** Index of the FLG containing order position @p pos. */
    int FlgOfPos(int pos) const;

    /**
     * Structural validity: order is a valid permutation w.r.t. @p graph
     * dependencies, cuts sorted/unique/in-range, dram_cuts subset of
     * flc_cuts, tiling arity matches. (Tiling feasibility is checked by
     * the parser, which knows fmap shapes.)
     */
    bool StructurallyValid(const Graph &graph, std::string *why = nullptr)
        const;

    /** Human-readable dump ("[A | B | C,E,D]{2,1,2} dram={2}"). */
    std::string ToString(const Graph &graph) const;
};

/**
 * The trivial LFA starting point (Sec. V-C1): topological order, every
 * layer its own FLG and LG, tiling at the heuristic parallel minimum
 * granularity supplied by the caller per layer.
 */
LfaEncoding MakeUnfusedLfa(const Graph &graph,
                           const std::vector<int> &tiling_per_layer);

/**
 * DRAM-load-and-store-related attributes over the tensor list produced
 * by the LFA parse. order is a permutation of tensor indices;
 * free_point[j] is the adjustable Living Duration endpoint of tensor j:
 * Start for loads (ifmaps/weights), End for stores (ofmaps).
 */
struct DlsaEncoding {
    std::vector<int> order;
    std::vector<TilePos> free_point;
};

}  // namespace soma

#endif  // SOMA_NOTATION_ENCODING_H

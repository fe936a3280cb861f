/**
 * @file
 * Parsing the Tensor-centric Notation into concrete hardware behaviour
 * (Sec. IV-A): stage 1 lowers the LFA into the serial tile compute
 * sequence, the set of DRAM tensors, and the on-chip fmap buffer
 * intervals; stage 2 (the DLSA, applied by the evaluator) supplies each
 * DRAM tensor's order and Living Duration.
 */
#ifndef SOMA_NOTATION_PARSER_H
#define SOMA_NOTATION_PARSER_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "corearray/core_array.h"
#include "notation/encoding.h"
#include "tiling/tiler.h"
#include "workload/graph.h"

namespace soma {

/** What a DRAM tensor is. Loads are weights/ifmaps; stores are ofmaps. */
enum class DramTensorKind { kWeight, kIfmap, kOfmap };

/**
 * Parse-time semantic switches.
 *
 * lg_resident_weights reproduces Cocco's conservative buffer semantics:
 * every weight stays resident until its whole Layer-fusion Group
 * finishes. SoMa's default releases a weight right after the layer's
 * last tile — the headroom the paper attributes to FLCs ("shuffling
 * weights can save buffer space, enabling the fusion of more layers",
 * Sec. VI-B1).
 */
struct ParseOptions {
    bool lg_resident_weights = false;
    /**
     * Debug invariant check for the incremental (group-memoized) parse:
     * after every ParseLfaInto, re-parse from scratch with an empty memo
     * and abort unless the two ParsedSchedules are bit-identical.
     * Roughly halves parse throughput — enable in property tests and
     * verification runs only (EvalContext::Parse turns it on under
     * SOMA_CROSS_CHECK=1).
     */
    bool cross_check = false;
};

/** One tensor that must move between DRAM and the GBUF. */
struct DramTensor {
    DramTensorKind kind = DramTensorKind::kWeight;
    LayerId layer = kNoLayer;    ///< consumer (loads) / producer (stores)
    LayerId src_layer = kNoLayer;///< ifmaps: cross-LG producer, or external
    int round = -1;              ///< tile round within the FLG; -1: weights
    int input_index = -1;        ///< ifmaps: which input slot of `layer`
    Bytes bytes = 0;

    /**
     * Loads: the tile position that first requires the data (upper bound
     * of the adjustable Start). Stores: the producing tile position (the
     * fixed Start).
     */
    TilePos first_use = 0;

    /**
     * Loads: the fixed End — one past the last tile position using the
     * data (release point). Stores: unused (the End is the DLSA knob).
     */
    TilePos fixed_end = 0;

    /** Tile-position range [lg_begin, lg_end) of the owning layer's LG
     *  (used by Cocco's group-granular prefetch heuristic). */
    TilePos lg_begin = 0;
    TilePos lg_end = 0;

    bool IsLoad() const { return kind != DramTensorKind::kOfmap; }

    bool operator==(const DramTensor &o) const
    {
        return kind == o.kind && layer == o.layer &&
               src_layer == o.src_layer && round == o.round &&
               input_index == o.input_index && bytes == o.bytes &&
               first_use == o.first_use && fixed_end == o.fixed_end &&
               lg_begin == o.lg_begin && lg_end == o.lg_end;
    }

    /** "WA", "IC2", "OE1"-style label for execution-graph dumps. */
    std::string Label(const Graph &graph) const;
};

/** One computing tile in the serialized compute sequence. */
struct TileInfo {
    LayerId layer = kNoLayer;
    int flg = 0;
    int lg = 0;
    int round = 0;       ///< tile index within the FLG
    Region region;       ///< ofmap region computed (halo included)
    TileCost cost;
    /** Tensor ids [load_begin, load_end): the DRAM loads to complete
     *  before start (the parse emits each tile's loads contiguously). */
    int load_begin = 0;
    int load_end = 0;

    bool operator==(const TileInfo &o) const
    {
        return layer == o.layer && flg == o.flg && lg == o.lg &&
               round == o.round && region == o.region && cost == o.cost &&
               load_begin == o.load_begin && load_end == o.load_end;
    }
};

/** GBUF bytes held during tile-position slots [from, to). */
struct OnchipInterval {
    TilePos from = 0;
    TilePos to = 0;
    Bytes bytes = 0;
    LayerId producer = kNoLayer;

    bool operator==(const OnchipInterval &o) const
    {
        return from == o.from && to == o.to && bytes == o.bytes &&
               producer == o.producer;
    }
};

/**
 * The LFA parse result: everything about a scheme except DRAM timing.
 */
struct ParsedSchedule {
    bool valid = false;
    std::string why_invalid;

    std::vector<TileInfo> tiles;
    std::vector<DramTensor> tensors;
    std::vector<OnchipInterval> onchip;

    int num_flgs = 0;
    int num_lgs = 0;

    int NumTiles() const { return static_cast<int>(tiles.size()); }
    int NumTensors() const { return static_cast<int>(tensors.size()); }

    /** Range of the adjustable Living Duration endpoint of tensor @p j:
     *  Start in [0, first_use] for loads, End in (first_use, NumTiles]
     *  for stores. */
    TilePos FreePointMin(int j) const;
    TilePos FreePointMax(int j) const;

    /** Sum of all DRAM tensor bytes. */
    Bytes TotalDramBytes() const;
};

/**
 * Reusable intermediate storage for ParseLfaInto. The SA inner loop
 * parses thousands of candidate LFAs; keeping one scratch per search
 * thread (EvalContext owns one) lets consecutive parses reuse the
 * per-layer and per-tensor containers instead of reallocating them.
 *
 * The scratch additionally carries the *group memo* behind the
 * incremental parse: the expensive per-FLG work (halo-propagated
 * tiling + per-tile core-array costs) is cached by the group's
 * sink-set content signature (canonical member set, Tiling Number) —
 * an FLG's tiling depends on its sink set, which the member set
 * determines, not on the interior computing order. An LFA operator
 * touches at most two fused groups, so consecutive parses re-derive
 * only the dirty groups and reuse every clean group's block verbatim;
 * an order move *within* a group is also a memo hit — the stored
 * block's permutation view (GroupParse::perm) is re-pointed at the new
 * order instead of re-deriving (or even deep-copying) regions and
 * costs. The schedule itself is rebuilt every call by one pass in tile-
 * position order that emits tiles and DRAM tensors already in canonical
 * order (plus one consumer pass per layer for stores and on-chip
 * intervals), which keeps the result bit-identical to a full parse
 * (ParseOptions::cross_check asserts this).
 */
struct ParseScratch {
    /** One fused group's memoized parse block. `sorted_layers`/`tiles`
     *  are the full canonical key (signature hashes are collision-
     *  checked); `layers` is the order the block is indexed by, and
     *  `costs` is round-major: costs[t * layers.size() + Perm(i)]
     *  belongs to layers[i] at tile round t. Blocks are
     *  content-addressed pure values. */
    struct GroupParse {
        std::vector<LayerId> layers;
        std::vector<LayerId> sorted_layers;
        int tiles = 0;
        FlgTiling tiling;
        std::vector<TileCost> costs;
        /** Permutation view: `tiling.regions` and `costs` stay in the
         *  order the block was first derived in; an interior order move
         *  only re-points this view (perm[i] = derivation-order index
         *  of layers[i]) instead of deep-copying regions and costs.
         *  Empty means identity (freshly derived blocks). */
        std::vector<std::size_t> perm;

        std::size_t Perm(std::size_t i) const
        {
            return perm.empty() ? i : perm[i];
        }
    };

    std::vector<int> flg_of_layer, lg_of_layer, idx_in_flg;
    std::vector<std::vector<LayerId>> flg_layers;
    std::vector<LayerId> sorted_members;  ///< per-group signature scratch
    std::vector<int> view_pos;            ///< perm-composition scratch
    std::vector<std::size_t> view_perm;   ///< perm-composition scratch
    std::vector<const GroupParse *> groups;  ///< per-FLG view, this parse
    std::vector<TilePos> flg_base;        ///< first tile position per FLG
    std::vector<TilePos> lg_begin, lg_end;
    std::vector<char> stores;             ///< per layer: ofmap stored
    std::vector<Region> prev_need;        ///< residency-extension scratch
    std::vector<int> prev_load;           ///< residency-extension scratch

    /** Signature-keyed group memo (cleared wholesale beyond the cap).
     *  Blocks are only valid for one (graph, evaluator) pair — layer
     *  ids restart at 0 in every graph — so ParseLfaInto drops the
     *  memo whenever either identity changes (tracked below, same
     *  pointer-identity convention as EvalContext's incremental base). */
    std::unordered_map<std::uint64_t, GroupParse> group_memo;
    /** Per-parse home for blocks whose signature collided with a
     *  different resident group (never evict mid-parse). */
    std::vector<std::unique_ptr<GroupParse>> group_overflow;
    static constexpr std::size_t kGroupMemoCap = 1 << 12;
    const void *memo_graph = nullptr;  ///< graph the memo describes
    const void *memo_eval = nullptr;   ///< evaluator the costs came from

    /** Dirty-set telemetry of the most recent ParseLfaInto call: groups
     *  re-derived vs reused; `last_remapped_groups` counts the reused
     *  subset that was re-indexed to a new interior order (sink-set
     *  signature hits). Exposed for tests and benches. */
    int last_dirty_groups = 0;
    int last_clean_groups = 0;
    int last_remapped_groups = 0;
};

/**
 * Parse the LFA: build the tile sequence (per-tile regions from the
 * backward halo propagation, costs from the core array evaluator), the
 * DRAM tensor list in canonical order (by need position; at equal
 * positions the weight, then ifmaps by input slot, then the store), and
 * the on-chip reuse intervals (by producer layer id).
 * Returns an invalid schedule (with a reason) when the encoding cannot
 * be realized.
 */
ParsedSchedule ParseLfa(const Graph &graph, const LfaEncoding &lfa,
                        const CoreArrayEvaluator &core_eval,
                        const ParseOptions &popts = {});

/**
 * Allocation-lean, incremental ParseLfa: writes into @p out and draws
 * intermediate storage (including the group memo) from @p scratch, both
 * of which retain their state across calls. The group memo is the one
 * tiling memo: dirty groups derive their FlgTiling here.
 */
void ParseLfaInto(const Graph &graph, const LfaEncoding &lfa,
                  const CoreArrayEvaluator &core_eval,
                  const ParseOptions &popts, ParseScratch *scratch,
                  ParsedSchedule *out);

/**
 * Bit-exact equality of two parse results (every tile, tensor and
 * interval field, including cost doubles). The contract the incremental
 * parse upholds against the from-scratch parse.
 */
bool ParsedSchedulesIdentical(const ParsedSchedule &a,
                              const ParsedSchedule &b);

/** Reusable storage for the scratch-based DlsaValid overload. */
struct DlsaCheckScratch {
    std::vector<char> seen;
    std::vector<int> rank;
    std::vector<int> store_rank_by_layer;
};

/**
 * Validity of a DLSA against a parse: permutation arity, free points in
 * range, and every cross-LG ifmap load ordered after all ofmap stores of
 * its source layer.
 */
bool DlsaValid(const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
               std::string *why = nullptr);

/** Allocation-lean DlsaValid for the SA inner loop. */
bool DlsaValid(const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
               std::string *why, DlsaCheckScratch *scratch);

}  // namespace soma

#endif  // SOMA_NOTATION_PARSER_H

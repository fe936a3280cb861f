/**
 * @file
 * Parsing the Tensor-centric Notation into concrete hardware behaviour
 * (Sec. IV-A): stage 1 lowers the LFA into the serial tile compute
 * sequence, the set of DRAM tensors, and the on-chip fmap buffer
 * intervals, and prices both serial resources' items (tile costs from
 * the core array evaluator, transfer seconds from its hardware's
 * memory model); stage 2 (the DLSA, applied by the evaluator) supplies
 * each DRAM tensor's order and Living Duration.
 */
#ifndef SOMA_NOTATION_PARSER_H
#define SOMA_NOTATION_PARSER_H

#include <cstddef>
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

    /** DRAM channel seconds of the transfer (PriceDramTensors). */
    double seconds = 0.0;

    bool IsLoad() const { return kind != DramTensorKind::kOfmap; }

    bool operator==(const DramTensor &o) const
    {
        return kind == o.kind && layer == o.layer &&
               src_layer == o.src_layer && round == o.round &&
               input_index == o.input_index && bytes == o.bytes &&
               first_use == o.first_use && fixed_end == o.fixed_end &&
               seconds == o.seconds;
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
 * The LFA parse result: everything about a scheme that no DLSA can
 * move, priced for the hardware it was parsed for. Only the DRAM order
 * and Living Durations are left to the DLSA.
 */
struct ParsedSchedule {
    bool valid = false;
    std::string why_invalid;

    std::vector<TileInfo> tiles;
    std::vector<DramTensor> tensors;
    std::vector<OnchipInterval> onchip;

    int num_flgs = 0;
    int num_lgs = 0;

    /** First tile position of each LG, then NumTiles(): LG g holds the
     *  positions [lg_base[g], lg_base[g + 1]), since an LG is a run of
     *  consecutive FLGs. A tensor's LG is tiles[first_use].lg. */
    std::vector<TilePos> lg_base;

    /** The schedule sums, folded as the parse emits: tile seconds and
     *  energy in position order, tensor bytes and seconds in index
     *  order (the pinned results depend on these exact bits). */
    double compute_busy = 0.0;    ///< EvalReport::compute_busy
    double core_energy_pj = 0.0;  ///< tile energy
    Bytes dram_bytes = 0;         ///< EvalReport::dram_bytes
    double dram_busy = 0.0;       ///< the model's ChannelBusySeconds

    int NumTiles() const { return static_cast<int>(tiles.size()); }
    int NumTensors() const { return static_cast<int>(tensors.size()); }

    /** Range of the adjustable Living Duration endpoint of tensor @p j:
     *  Start in [0, first_use] for loads, End in (first_use, NumTiles]
     *  for stores. */
    TilePos FreePointMin(int j) const;
    TilePos FreePointMax(int j) const;
};

/**
 * Reusable intermediate storage for ParseLfaInto. The SA inner loop
 * parses thousands of candidate LFAs; keeping one scratch per search
 * thread (EvalContext owns one) lets consecutive parses reuse the
 * per-layer and per-tensor containers instead of reallocating them.
 *
 * The scratch additionally carries the *group memo* behind the
 * incremental parse: the expensive per-FLG work (halo-propagated
 * tiling + per-tile core-array costs) is cached by the group's member
 * set and Tiling Number — an FLG's tiling depends on its sink set,
 * which the member set determines, not on the interior computing
 * order. Every block is derived in one canonical order, ascending
 * layer id, and each layer reads its row through its index in the
 * key, so a block is independent of the group's interior order and of
 * its position in the scheme. An LFA operator touches at most two
 * fused groups, so consecutive parses re-derive only the dirty groups
 * and reuse every clean group's block verbatim; an order move *within*
 * a group is a plain memo hit. Blocks hold tile ids into one table of
 * the context's distinct tiles (a layer's region and its cost), since
 * most (layer, round) cells of the memo repeat a tile another block
 * already holds. The schedule itself is rebuilt every call by one pass
 * in tile-position order that emits tiles and DRAM tensors already in
 * canonical order (plus one consumer pass per layer for stores and
 * on-chip intervals), which keeps the result bit-identical to a full
 * parse (ParseOptions::cross_check asserts this).
 */
struct ParseScratch {
    /** A fused group's memo key: its members in ascending layer-id
     *  order, then its Tiling Number. */
    struct GroupKey {
        std::vector<LayerId> layers;
        int tiles = 0;

        bool operator==(const GroupKey &o) const
        {
            return tiles == o.tiles && layers == o.layers;
        }

        /** FNV-1a over the members, then the Tiling Number. */
        struct Hash {
            std::size_t operator()(const GroupKey &key) const;
        };
    };

    /** One fused group's memoized parse block, derived in its key's
     *  layer order: the round-major tile_ids[t * layers.size() + k]
     *  names key.layers[k]'s tile at round t in `tiles`. Blocks are
     *  pure values of their key and of the table. */
    struct GroupParse {
        bool valid = false;  ///< the Tiling Number splits the group
        TileSplit split;
        std::vector<int> tile_ids;
    };

    /** A distinct tile: the region of a layer's ofmap one round
     *  computes, and its cost. */
    struct Tile {
        Region region;
        TileCost cost;
    };

    /** A tile's table key: its layer and its whole region, positions
     *  included, compared in full (a border tile's clipped input
     *  bytes make its cost differ from an interior tile's of equal
     *  extents). */
    struct TileKey {
        LayerId layer = kNoLayer;
        Region region;

        bool operator==(const TileKey &o) const
        {
            return layer == o.layer && region == o.region;
        }

        /** FNV-1a over the layer, then the region's bounds. */
        struct Hash {
            std::size_t operator()(const TileKey &key) const;
        };
    };

    std::vector<int> flg_of_layer, lg_of_layer, idx_in_flg;
    std::vector<int> key_idx;             ///< per layer: index in its key
    std::vector<std::vector<LayerId>> flg_layers;
    GroupKey lookup;                      ///< reused memo lookup key
    std::vector<const GroupParse *> groups;  ///< per-FLG view, this parse
    std::vector<TilePos> flg_base;        ///< first tile position per FLG
    std::vector<char> stores;             ///< per layer: ofmap stored
    std::vector<Region> prev_need;        ///< residency-extension scratch
    std::vector<int> prev_load;           ///< residency-extension scratch

    /** The group memo and its tile table, cleared together and
     *  wholesale beyond the cap. Both are only valid for one (graph,
     *  evaluator) pair — layer ids restart at 0 in every graph, and
     *  costs follow the evaluator's hardware — so ParseLfaInto drops
     *  them whenever either identity changes (tracked below, same
     *  pointer-identity convention as EvalContext's incremental
     *  base). */
    std::unordered_map<GroupKey, GroupParse, GroupKey::Hash> group_memo;
    std::vector<Tile> tiles;  ///< indexed by tile id
    std::unordered_map<TileKey, int, TileKey::Hash> tile_index;
    static constexpr std::size_t kGroupMemoCap = 1 << 12;
    const void *memo_graph = nullptr;  ///< graph the memo describes
    const void *memo_eval = nullptr;   ///< evaluator the costs came from

    /** Dirty-set telemetry of the most recent ParseLfaInto call: groups
     *  re-derived vs reused. Exposed for tests and benches. */
    int last_dirty_groups = 0;
    int last_clean_groups = 0;

    /** Tile ids the memo's blocks hold; `tiles.size()` of them are
     *  distinct. */
    std::size_t MemoCells() const;
};

/**
 * Parse the LFA: build the tile sequence (per-tile regions from the
 * backward halo propagation, costs from the core array evaluator), the
 * DRAM tensor list in canonical order (by need position; at equal
 * positions the weight, then ifmaps by input slot, then the store),
 * priced under core_eval.hw()'s memory model, and the on-chip reuse
 * intervals (by producer layer id).
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
 * Price every DRAM tensor of @p parsed under @p hw's memory model, in
 * tensor-index order, and set dram_bytes and dram_busy. ParseLfaInto
 * calls it for core_eval.hw(); call it again to re-price a copy for
 * other hardware.
 */
void PriceDramTensors(const HardwareConfig &hw, ParsedSchedule *parsed);

/**
 * Bit-exact equality of two parse results (every tile, tensor and
 * interval field and every sum, including cost and price doubles). The
 * contract the incremental parse upholds against the from-scratch
 * parse.
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

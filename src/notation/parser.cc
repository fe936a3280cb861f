#include "notation/parser.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <numeric>

#include "common/logging.h"
#include "obs/prof.h"

namespace soma {

std::string
DramTensor::Label(const Graph &graph) const
{
    std::string base;
    switch (kind) {
      case DramTensorKind::kWeight:
        base = "W:" + graph.layer(layer).name();
        break;
      case DramTensorKind::kIfmap:
        base = "I:" + graph.layer(layer).name();
        break;
      case DramTensorKind::kOfmap:
        base = "O:" + graph.layer(layer).name();
        break;
    }
    if (round >= 0) base += "#" + std::to_string(round);
    return base;
}

TilePos
ParsedSchedule::FreePointMin(int j) const
{
    const DramTensor &t = tensors[j];
    return t.IsLoad() ? 0 : t.first_use + 1;
}

TilePos
ParsedSchedule::FreePointMax(int j) const
{
    const DramTensor &t = tensors[j];
    return t.IsLoad() ? t.first_use : NumTiles();
}

Bytes
ParsedSchedule::TotalDramBytes() const
{
    Bytes total = 0;
    for (const DramTensor &t : tensors) total += t.bytes;
    return total;
}

namespace {

/** Producer shape lookup covering both graph layers and external refs. */
void
ProducerShape(const Graph &graph, const InputRef &in, int *c, int *h, int *w)
{
    if (in.producer == kNoLayer) {
        *c = in.ext.channels;
        *h = in.ext.height;
        *w = in.ext.width;
    } else {
        const Layer &p = graph.layer(in.producer);
        *c = p.outChannels();
        *h = p.outHeight();
        *w = p.outWidth();
    }
}

/** FNV-1a over a fused group's sorted member list, then its Tiling
 *  Number: the group memo's signature (collision-checked against the
 *  full key). */
std::uint64_t
GroupKeyHash(const std::vector<LayerId> &layers, int tiles)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (LayerId id : layers) {
        h ^= static_cast<std::uint64_t>(id);
        h *= 1099511628211ULL;
    }
    h ^= static_cast<std::uint64_t>(tiles);
    h *= 1099511628211ULL;
    return h;
}

void ParseLfaIntoImpl(const Graph &graph, const LfaEncoding &lfa,
                      const CoreArrayEvaluator &core_eval,
                      const ParseOptions &popts, ParseScratch *scratch,
                      ParsedSchedule *out_ptr);

}  // namespace

ParsedSchedule
ParseLfa(const Graph &graph, const LfaEncoding &lfa,
         const CoreArrayEvaluator &core_eval, const ParseOptions &popts)
{
    ParseScratch scratch;
    ParsedSchedule out;
    ParseLfaInto(graph, lfa, core_eval, popts, &scratch, &out);
    return out;
}

bool
ParsedSchedulesIdentical(const ParsedSchedule &a, const ParsedSchedule &b)
{
    return a.valid == b.valid && a.why_invalid == b.why_invalid &&
           a.num_flgs == b.num_flgs && a.num_lgs == b.num_lgs &&
           a.tiles == b.tiles && a.tensors == b.tensors &&
           a.onchip == b.onchip;
}

void
ParseLfaInto(const Graph &graph, const LfaEncoding &lfa,
             const CoreArrayEvaluator &core_eval,
             const ParseOptions &popts, ParseScratch *scratch,
             ParsedSchedule *out_ptr)
{
    SOMA_PROF_SCOPE("parse.lfa");
    ParseLfaIntoImpl(graph, lfa, core_eval, popts, scratch, out_ptr);
    if (popts.cross_check) {
        // Reference: from-scratch parse with an empty group memo. Any
        // divergence is a bug in the incremental path — fail loudly,
        // never silently mis-schedule.
        ParseOptions ref_popts = popts;
        ref_popts.cross_check = false;
        ParseScratch ref_scratch;
        ParsedSchedule ref;
        ParseLfaIntoImpl(graph, lfa, core_eval, ref_popts, &ref_scratch,
                         &ref);
        if (!ParsedSchedulesIdentical(*out_ptr, ref)) {
            SOMA_ERROR << "incremental parse diverged from full parse "
                          "for "
                       << lfa.ToString(graph);
            std::abort();
        }
    }
}

namespace {

void
ParseLfaIntoImpl(const Graph &graph, const LfaEncoding &lfa,
                 const CoreArrayEvaluator &core_eval,
                 const ParseOptions &popts, ParseScratch *scratch,
                 ParsedSchedule *out_ptr)
{
    ParsedSchedule &out = *out_ptr;
    out.valid = false;
    out.why_invalid.clear();
    out.tiles.clear();
    out.tensors.clear();
    out.onchip.clear();
    out.num_flgs = 0;
    out.num_lgs = 0;
    if (!lfa.StructurallyValid(graph, &out.why_invalid)) return;

    const int n = graph.NumLayers();
    out.num_flgs = lfa.NumFlgs();
    out.num_lgs = lfa.NumLgs();

    // Per-layer placement metadata.
    std::vector<int> &flg_of_layer = scratch->flg_of_layer;
    std::vector<int> &lg_of_layer = scratch->lg_of_layer;
    std::vector<int> &idx_in_flg = scratch->idx_in_flg;
    flg_of_layer.assign(n, -1);
    lg_of_layer.assign(n, -1);
    idx_in_flg.assign(n, -1);
    std::vector<std::vector<LayerId>> &flg_layers = scratch->flg_layers;
    flg_layers.resize(lfa.NumFlgs());
    for (int g = 0; g < lfa.NumFlgs(); ++g) flg_layers[g].clear();
    for (int g = 0; g < lfa.NumFlgs(); ++g) {
        int begin, end;
        lfa.FlgRange(g, &begin, &end);
        for (int p = begin; p < end; ++p) {
            LayerId id = lfa.order[p];
            flg_of_layer[id] = g;
            lg_of_layer[id] = lfa.LgOfPos(p);
            idx_in_flg[id] = p - begin;
            flg_layers[g].push_back(id);
        }
    }

    // Tile and cost the FLGs. Group blocks are content-addressed by
    // their sink-set signature (canonical member set + Tiling Number):
    // groups untouched by the last mutation ("clean") reuse their
    // memoized block — tiling (backward halo propagation) and per-tile
    // core-array costs — verbatim; a clean group whose *interior order*
    // moved re-indexes the block (regions and costs are order-invariant
    // per layer, only their positional indexing follows the order);
    // only dirty groups re-derive it.
    if (scratch->memo_graph != static_cast<const void *>(&graph) ||
        scratch->memo_eval != static_cast<const void *>(&core_eval)) {
        scratch->group_memo.clear();
        scratch->memo_graph = &graph;
        scratch->memo_eval = &core_eval;
    }
    if (scratch->group_memo.size() > ParseScratch::kGroupMemoCap)
        scratch->group_memo.clear();
    scratch->group_overflow.clear();
    scratch->last_dirty_groups = 0;
    scratch->last_clean_groups = 0;
    scratch->last_remapped_groups = 0;
    std::vector<const ParseScratch::GroupParse *> &groups = scratch->groups;
    groups.assign(lfa.NumFlgs(), nullptr);
    for (int g = 0; g < lfa.NumFlgs(); ++g) {
        const int rounds = lfa.tiling[g];
        const auto &layers = flg_layers[g];
        // Sink-set signature (collision-checked below against the full
        // sorted-members/tiles key).
        std::vector<LayerId> &sorted = scratch->sorted_members;
        sorted = layers;
        std::sort(sorted.begin(), sorted.end());
        const std::uint64_t sig = GroupKeyHash(sorted, rounds);
        auto it = scratch->group_memo.find(sig);
        const bool key_matches = it != scratch->group_memo.end() &&
                                 it->second.tiles == rounds &&
                                 it->second.sorted_layers == sorted;
        if (key_matches && it->second.layers == layers) {
            groups[g] = &it->second;
            ++scratch->last_clean_groups;
        } else if (key_matches) {
            // Same member set (hence same sink set and tiling), new
            // interior order: re-point the block's permutation view at
            // the new order. Regions and costs stay untouched in their
            // derivation order — an order move is allocation-free, no
            // matter how large the group. The update is safe mid-parse:
            // FLGs partition the layers, so no other group of this
            // parse can share the member set behind `sig`, and reads
            // from an earlier clean hit of the same block in this parse
            // are impossible for the same reason.
            ParseScratch::GroupParse &blk = it->second;
            std::vector<int> &pos = scratch->view_pos;
            if (pos.size() < static_cast<std::size_t>(n)) pos.resize(n);
            for (std::size_t i = 0; i < blk.layers.size(); ++i)
                pos[blk.layers[i]] = static_cast<int>(i);
            // Compose with the existing view so repeated moves stay a
            // single indirection deep: new[i] = derivation-order index
            // of layers[i], found via its position in the old view.
            std::vector<std::size_t> &next = scratch->view_perm;
            next.resize(layers.size());
            for (std::size_t i = 0; i < layers.size(); ++i)
                next[i] = blk.Perm(
                    static_cast<std::size_t>(pos[layers[i]]));
            blk.perm.swap(next);
            blk.layers = layers;
            groups[g] = &blk;
            ++scratch->last_clean_groups;
            ++scratch->last_remapped_groups;
        } else {
            ParseScratch::GroupParse block;
            block.layers = layers;
            block.sorted_layers = sorted;
            block.tiles = rounds;
            {
                SOMA_PROF_SCOPE("tiling.derive");
                block.tiling = ComputeFlgTiling(graph, layers, rounds);
            }
            if (block.tiling.valid) {
                SOMA_PROF_SCOPE("tilecost.compute");
                const std::size_t n_layers = layers.size();
                block.costs.resize(n_layers *
                                   static_cast<std::size_t>(rounds));
                for (int t = 0; t < rounds; ++t) {
                    const std::size_t row =
                        static_cast<std::size_t>(t) * n_layers;
                    for (std::size_t i = 0; i < n_layers; ++i)
                        block.costs[row + i] = core_eval.Evaluate(
                            layers[i], block.tiling.regions[i][t]);
                }
            }
            if (it != scratch->group_memo.end()) {
                // Not memoized: the signature collided with a
                // *different* resident group, which must never be
                // evicted mid-parse (an earlier group may already point
                // at it). Park the block in per-parse overflow storage.
                scratch->group_overflow.push_back(
                    std::make_unique<ParseScratch::GroupParse>(
                        std::move(block)));
                groups[g] = scratch->group_overflow.back().get();
            } else {
                groups[g] = &scratch->group_memo
                                 .emplace(sig, std::move(block))
                                 .first->second;
            }
            ++scratch->last_dirty_groups;
        }
        if (!groups[g]->tiling.valid) {
            out.why_invalid = "tiling " + std::to_string(rounds) +
                              " infeasible for FLG " + std::to_string(g);
            return;
        }
    }

    // Tile positions: FLGs run back to back, each round-robin over its
    // rounds, so layer i of FLG g runs round t at flg_base[g] +
    // t * |g| + i. An LG is a run of consecutive FLGs, hence one
    // contiguous position range [lg_begin, lg_end).
    std::vector<TilePos> &flg_base = scratch->flg_base;
    std::vector<TilePos> &lg_begin = scratch->lg_begin;
    std::vector<TilePos> &lg_end = scratch->lg_end;
    flg_base.resize(lfa.NumFlgs() + 1);
    lg_begin.assign(lfa.NumLgs(), -1);
    lg_end.resize(lfa.NumLgs());
    flg_base[0] = 0;
    for (int g = 0; g < lfa.NumFlgs(); ++g) {
        const int lg = lg_of_layer[flg_layers[g][0]];
        if (lg_begin[lg] < 0) lg_begin[lg] = flg_base[g];
        flg_base[g + 1] =
            flg_base[g] +
            static_cast<TilePos>(flg_layers[g].size()) * lfa.tiling[g];
        lg_end[lg] = flg_base[g + 1];
    }
    auto pos_of = [&](LayerId id, int t) {
        const int g = flg_of_layer[id];
        return flg_base[g] +
               static_cast<TilePos>(t * flg_layers[g].size()) +
               idx_in_flg[id];
    };

    // One consumer pass per layer, in layer-id order: whether the ofmap
    // is stored (a network output, or read by a later LG), and the
    // on-chip intervals. A same-FLG consumer holds the producer's
    // round-t tile from its production to the last in-FLG consumption;
    // a cross-FLG consumer within the LG holds the full ofmap from the
    // producer's first tile to the last consuming tile.
    std::vector<char> &stores = scratch->stores;
    stores.assign(n, 0);
    for (LayerId id = 0; id < n; ++id) {
        const Layer &l = graph.layer(id);
        const int g = flg_of_layer[id];
        const int lg = lg_of_layer[id];
        bool store = l.isNetworkOutput();
        int last_same_idx = -1;
        TilePos last_cross_flg = -1;
        for (const Edge &e : graph.Consumers(id)) {
            const LayerId c = e.consumer;
            if (lg_of_layer[c] != lg) {
                store = true;
            } else if (flg_of_layer[c] == g) {
                last_same_idx = std::max(last_same_idx, idx_in_flg[c]);
            } else {
                last_cross_flg = std::max(
                    last_cross_flg,
                    pos_of(c, lfa.tiling[flg_of_layer[c]] - 1));
            }
        }
        stores[id] = store;
        if (last_same_idx >= 0) {
            const auto &regions = groups[g]->tiling.regions[groups[g]->Perm(
                static_cast<std::size_t>(idx_in_flg[id]))];
            for (int t = 0; t < lfa.tiling[g]; ++t) {
                OnchipInterval iv;
                iv.from = pos_of(id, t);
                iv.to = iv.from + (last_same_idx - idx_in_flg[id]) + 1;
                iv.bytes = l.OutputBytes(regions[t]);
                iv.producer = id;
                out.onchip.push_back(iv);
            }
        }
        if (last_cross_flg >= 0) {
            OnchipInterval iv;
            iv.from = pos_of(id, 0);
            iv.to = last_cross_flg + 1;
            iv.bytes = l.PerSampleOutputBytes() * graph.batch();
            iv.producer = id;
            out.onchip.push_back(iv);
        }
    }

    // Emit tiles and DRAM tensors in one pass in tile-position order. At
    // each position: the tile, its weight (round 0), its new ifmap
    // loads by input slot, then its ofmap store. A position belongs to
    // exactly one (layer, round), so this *is* the canonical tensor
    // order — by need position; weights, then ifmaps, then stores — and
    // each tile's loads are the contiguous id range
    // [load_begin, load_end).
    out.tiles.reserve(static_cast<std::size_t>(flg_base[lfa.NumFlgs()]));
    std::vector<Region> &prev_need = scratch->prev_need;
    std::vector<int> &prev_load = scratch->prev_load;
    for (int g = 0; g < lfa.NumFlgs(); ++g) {
        const int rounds = lfa.tiling[g];
        const auto &layers = flg_layers[g];
        const std::size_t size = layers.size();
        const ParseScratch::GroupParse &block = *groups[g];
        const int lg = lg_of_layer[layers[0]];
        // Per (layer, input slot) of the FLG: the last loaded region
        // and its tensor id (-1: none yet), for the residency
        // extension. Slots are numbered the same way every round.
        std::size_t num_slots = 0;
        for (LayerId id : layers) num_slots += graph.layer(id).inputs().size();
        prev_need.resize(num_slots);
        prev_load.assign(num_slots, -1);
        for (int t = 0; t < rounds; ++t) {
            std::size_t slot = 0;
            for (std::size_t i = 0; i < size; ++i) {
                const LayerId id = layers[i];
                const Layer &l = graph.layer(id);
                const std::size_t k = block.Perm(i);
                const TilePos pos = static_cast<TilePos>(out.tiles.size());
                TileInfo tile;
                tile.layer = id;
                tile.flg = g;
                tile.lg = lg;
                tile.round = t;
                tile.region = block.tiling.regions[k][t];
                assert(!tile.region.Empty());
                tile.cost =
                    block.costs[static_cast<std::size_t>(t) * size + k];
                tile.load_begin = out.NumTensors();
                // The fields every tensor needed at this position shares.
                DramTensor at;
                at.layer = id;
                at.first_use = pos;
                at.lg_begin = lg_begin[lg];
                at.lg_end = lg_end[lg];

                // Weights: one load per layer. SoMa releases them right
                // after the layer's last tile; Cocco semantics hold
                // them to LG end.
                if (t == 0 && l.weightBytes() > 0) {
                    DramTensor dt = at;
                    dt.kind = DramTensorKind::kWeight;
                    dt.bytes = l.weightBytes();
                    dt.fixed_end =
                        popts.lg_resident_weights
                            ? lg_end[lg]
                            : pos + static_cast<TilePos>((rounds - 1) *
                                                         size) + 1;
                    out.tensors.push_back(dt);
                }

                // Ifmaps: external inputs and cross-LG producers load
                // per tile.
                const auto &ins = l.inputs();
                for (int in_idx = 0; in_idx < static_cast<int>(ins.size());
                     ++in_idx, ++slot) {
                    const InputRef &in = ins[in_idx];
                    if (in.producer != kNoLayer &&
                        lg_of_layer[in.producer] == lg)
                        continue;
                    int pc, ph, pw;
                    ProducerShape(graph, in, &pc, &ph, &pw);
                    const Region need =
                        l.RequiredInputRegion(in, tile.region, ph, pw);
                    if (prev_load[slot] >= 0 && need == prev_need[slot]) {
                        // Identical region as the previous round (kFull
                        // operands like KV caches): the data is already
                        // in the GBUF — extend the residency, don't
                        // re-load.
                        out.tensors[prev_load[slot]].fixed_end = pos + 1;
                        continue;
                    }
                    DramTensor dt = at;
                    dt.kind = DramTensorKind::kIfmap;
                    dt.src_layer = in.producer;
                    dt.round = t;
                    dt.input_index = in_idx;
                    dt.bytes = need.Sites() * pc * l.elemBytes();
                    dt.fixed_end = pos + 1;
                    if (dt.bytes > 0) {
                        prev_need[slot] = need;
                        prev_load[slot] = out.NumTensors();
                        out.tensors.push_back(dt);
                    }
                }
                tile.load_end = out.NumTensors();
                out.tiles.push_back(tile);

                // Ofmaps: the canonical (non-overlapping) slice is
                // stored. fixed_end stays unused: the End is the DLSA
                // knob.
                if (stores[id]) {
                    const Region slice =
                        CanonicalSlice(block.tiling.split, t, graph.batch(),
                                       l.outHeight(), l.outWidth());
                    DramTensor dt = at;
                    dt.kind = DramTensorKind::kOfmap;
                    dt.round = t;
                    dt.bytes = l.OutputBytes(slice);
                    if (dt.bytes > 0) out.tensors.push_back(dt);
                }
            }
        }
    }

    out.valid = true;
}

}  // namespace

bool
DlsaValid(const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
          std::string *why)
{
    DlsaCheckScratch scratch;
    return DlsaValid(parsed, dlsa, why, &scratch);
}

bool
DlsaValid(const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
          std::string *why, DlsaCheckScratch *scratch)
{
    auto fail = [&](const char *msg) {
        if (why) *why = msg;
        return false;
    };
    const int d = parsed.NumTensors();
    if (static_cast<int>(dlsa.order.size()) != d ||
        static_cast<int>(dlsa.free_point.size()) != d) {
        return fail("dlsa arity mismatch");
    }
    std::vector<char> &seen = scratch->seen;
    seen.assign(d, 0);
    for (int j : dlsa.order) {
        if (j < 0 || j >= d || seen[j]) return fail("order not a permutation");
        seen[j] = 1;
    }
    for (int j = 0; j < d; ++j) {
        if (dlsa.free_point[j] < parsed.FreePointMin(j) ||
            dlsa.free_point[j] > parsed.FreePointMax(j)) {
            return fail("living duration out of range");
        }
    }
    // Data existence: a cross-LG ifmap load must follow every store of
    // its source layer in the DRAM order.
    std::vector<int> &rank = scratch->rank;
    rank.assign(d, 0);
    for (int r = 0; r < d; ++r) rank[dlsa.order[r]] = r;
    // max store rank per source layer (-1: layer stores nothing):
    LayerId max_layer = -1;
    for (int j = 0; j < d; ++j)
        max_layer = std::max(max_layer, parsed.tensors[j].layer);
    std::vector<int> &store_rank = scratch->store_rank_by_layer;
    store_rank.assign(static_cast<std::size_t>(max_layer + 1), -1);
    for (int j = 0; j < d; ++j) {
        const DramTensor &t = parsed.tensors[j];
        if (t.kind == DramTensorKind::kOfmap) {
            store_rank[t.layer] = std::max(store_rank[t.layer], rank[j]);
        }
    }
    for (int j = 0; j < d; ++j) {
        const DramTensor &t = parsed.tensors[j];
        if (t.kind == DramTensorKind::kIfmap && t.src_layer != kNoLayer &&
            t.src_layer <= max_layer && store_rank[t.src_layer] >= 0 &&
            rank[j] < store_rank[t.src_layer]) {
            return fail("ifmap load ordered before producer store");
        }
    }
    return true;
}

}  // namespace soma

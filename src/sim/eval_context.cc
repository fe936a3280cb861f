#include "sim/eval_context.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "obs/prof.h"
#include "search/dlsa_heuristics.h"

namespace soma {

namespace {

/** Hold @p bytes over slots [from, to), clamped into @p diff. */
void
AddSlots(std::vector<Bytes> *diff, TilePos from, TilePos to, Bytes bytes)
{
    const TilePos slots = static_cast<TilePos>(diff->size()) - 1;
    from = std::clamp<TilePos>(from, 0, slots);
    to = std::clamp<TilePos>(to, 0, slots);
    if (from >= to) return;
    (*diff)[from] += bytes;
    (*diff)[to] -= bytes;
}

double
CoreEnergyJ(const ParsedSchedule &parsed)
{
    return parsed.core_energy_pj * 1e-12;
}

double
DramEnergyJ(const ParsedSchedule &parsed, const HardwareConfig &hw)
{
    return static_cast<double>(parsed.dram_bytes) *
           hw.energy.dram_pj_per_byte * 1e-12;
}

}  // namespace

void
ComputeBufferBySlot(const ParsedSchedule &parsed,
                    const std::vector<TilePos> &free_point,
                    std::vector<Bytes> *diff, std::vector<Bytes> *usage)
{
    const int slots = parsed.NumTiles();
    diff->assign(slots + 1, 0);
    for (const OnchipInterval &iv : parsed.onchip)
        AddSlots(diff, iv.from, iv.to, iv.bytes);
    for (int j = 0; j < parsed.NumTensors(); ++j) {
        const DramTensor &t = parsed.tensors[j];
        if (t.IsLoad()) {
            AddSlots(diff, free_point[j], t.fixed_end, t.bytes);
        } else {
            AddSlots(diff, t.first_use, free_point[j], t.bytes);
        }
    }
    usage->assign(slots, 0);
    Bytes run = 0;
    for (int s = 0; s < slots; ++s) {
        run += (*diff)[s];
        (*usage)[s] = run;
    }
}

namespace {

bool
TimesEqual(const std::vector<EventTiming> &a,
           const std::vector<EventTiming> &b)
{
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].start != b[i].start || a[i].finish != b[i].finish)
            return false;
    }
    return true;
}

bool
ReportsEqual(const EvalReport &a, const EvalReport &b)
{
    return a.valid == b.valid && a.why_invalid == b.why_invalid &&
           a.latency == b.latency && a.core_energy_j == b.core_energy_j &&
           a.dram_energy_j == b.dram_energy_j &&
           a.compute_busy == b.compute_busy && a.dram_busy == b.dram_busy &&
           a.compute_util == b.compute_util && a.dram_util == b.dram_util &&
           a.theory_max_util == b.theory_max_util &&
           a.peak_buffer == b.peak_buffer && a.avg_buffer == b.avg_buffer &&
           a.dram_bytes == b.dram_bytes && a.num_tiles == b.num_tiles &&
           a.num_tensors == b.num_tensors && a.num_flgs == b.num_flgs &&
           a.num_lgs == b.num_lgs && TimesEqual(a.tile_times, b.tile_times) &&
           TimesEqual(a.tensor_times, b.tensor_times);
}

}  // namespace

EvalContext::EvalContext(const HardwareConfig &hw, Bytes buffer_budget,
                         Ops total_ops)
    : hw_(hw),
      budget_(buffer_budget),
      total_ops_(total_ops)
{
    const char *cc = std::getenv("SOMA_CROSS_CHECK");
    if (cc && *cc && !(cc[0] == '0' && cc[1] == '\0')) cross_check_ = true;
}

const ParsedSchedule &
EvalContext::Parse(const Graph &graph, const LfaEncoding &lfa,
                   const CoreArrayEvaluator &core_eval,
                   const ParseOptions &popts)
{
    // The slot is overwritten: a base or an uncommitted evaluation
    // against it would describe a schedule that no longer exists.
    if (base_parsed_ == &parsed_) InvalidateBase();
    cand_fresh_ = false;
    cand_parsed_ = nullptr;
    ParseOptions opts = popts;
    opts.cross_check = opts.cross_check || cross_check_;
    ParseLfaInto(graph, lfa, core_eval, opts, &parse_scratch_, &parsed_);
    return parsed_;
}

void
EvalContext::ResetAggregates(EvalReport *rep)
{
    rep->latency = std::numeric_limits<double>::infinity();
    rep->core_energy_j = 0.0;
    rep->dram_energy_j = 0.0;
    rep->compute_busy = 0.0;
    rep->dram_busy = 0.0;
    rep->compute_util = 0.0;
    rep->dram_util = 0.0;
    rep->theory_max_util = 0.0;
    rep->avg_buffer = 0.0;
    rep->dram_bytes = 0;
}

void
EvalContext::ResetReportForEval(const ParsedSchedule &parsed, EvalReport *rep)
{
    rep->valid = false;
    rep->why_invalid.clear();
    ResetAggregates(rep);
    rep->peak_buffer = 0;
    rep->num_tiles = parsed.NumTiles();
    rep->num_tensors = parsed.NumTensors();
    rep->num_flgs = parsed.num_flgs;
    rep->num_lgs = parsed.num_lgs;
    rep->tile_times.clear();
    rep->tensor_times.clear();
}

void
EvalContext::BuildGateIndex(const ParsedSchedule &parsed, Side *side)
{
    const int T = parsed.NumTiles();
    const int D = parsed.NumTensors();
    side->rank_of.resize(D);
    side->gate.assign(T, -1);
    for (int r = 0; r < D; ++r) {
        const int j = side->order[r];
        side->rank_of[j] = r;
        // A load gates the tile that first uses it, a store the tile at
        // its End (an End of NumTiles gates none). Ranks ascend, so the
        // last write is the highest.
        const DramTensor &t = parsed.tensors[j];
        const TilePos at = t.IsLoad() ? t.first_use : side->free_point[j];
        if (at < T) side->gate[at] = r;
    }
}

bool
EvalContext::RunTimeline(const ParsedSchedule &parsed, Side *side, int ci,
                         int di, double dram_prev_finish)
{
    SOMA_PROF_SCOPE("eval.timeline");
    const int T = parsed.NumTiles();
    const int D = parsed.NumTensors();
    const TileInfo *tiles = parsed.tiles.data();
    const DramTensor *tensors = parsed.tensors.data();
    const int *order = side->order.data();
    const int *gate = side->gate.data();
    const TilePos *free_point = side->free_point.data();
    EventTiming *tile_times = side->report.tile_times.data();
    EventTiming *tensor_times = side->report.tensor_times.data();

    while (ci < T || di < D) {
        bool progress = false;

        // DRAM head, in rank order: a load waits for tiles before its
        // Start; a store waits for its producing tile.
        while (di < D) {
            const int j = order[di];
            const DramTensor &t = tensors[j];
            double ready;
            if (t.IsLoad()) {
                TilePos s = free_point[j];
                if (s > ci) break;  // tiles before Start not yet scheduled
                ready = (s == 0) ? 0.0 : tile_times[s - 1].finish;
            } else {
                if (t.first_use >= ci) break;  // producer not scheduled
                ready = tile_times[t.first_use].finish;
            }
            const double start = std::max(dram_prev_finish, ready);
            const double finish = start + t.seconds;
            tensor_times[j] = EventTiming{start, finish};
            side->ci_at_rank[di] = ci;
            dram_prev_finish = finish;
            ++di;
            progress = true;
        }

        // Compute head: waits for the previous tile, its operand loads,
        // and all stores whose End equals this tile. The channel is
        // serial, so the one of those with the highest rank, gate[ci],
        // finishes last; rank r has been issued exactly when r < di.
        while (ci < T) {
            const int g = gate[ci];
            if (g >= di) break;
            double start = (ci == 0) ? 0.0 : tile_times[ci - 1].finish;
            if (g >= 0) start = std::max(start, tensor_times[order[g]].finish);
            tile_times[ci] = EventTiming{start, start + tiles[ci].cost.seconds};
            side->rank_at_tile[ci] = di;
            ++ci;
            progress = true;
        }

        if (!progress) {
            run_dead_ci_ = ci;
            run_dead_di_ = di;
            return false;
        }
    }
    return true;
}

void
EvalContext::FinalizeAggregates(const ParsedSchedule &parsed, Side *side,
                                double known_avg)
{
    EvalReport &rep = side->report;
    const int T = parsed.NumTiles();
    const int D = parsed.NumTensors();

    // Finishes never decrease along either serial resource, so the
    // makespan is the later of the last tile's and the last rank's.
    rep.latency = T > 0 ? rep.tile_times[T - 1].finish : 0.0;
    if (D > 0) {
        const double last = rep.tensor_times[side->order[D - 1]].finish;
        rep.latency = std::max(rep.latency, last);
    }

    rep.compute_busy = parsed.compute_busy;
    rep.dram_bytes = parsed.dram_bytes;
    rep.dram_busy = parsed.dram_busy;
    rep.core_energy_j = CoreEnergyJ(parsed);
    rep.dram_energy_j = DramEnergyJ(parsed, hw_);

    double peak_ops = hw_.PeakOpsPerSecond();
    rep.compute_util = static_cast<double>(total_ops_) /
                       (peak_ops * rep.latency);
    rep.dram_util = rep.dram_busy / rep.latency;
    double bound = std::max(rep.compute_busy, rep.dram_busy);
    rep.theory_max_util =
        bound > 0.0 ? static_cast<double>(total_ops_) / (peak_ops * bound)
                    : 0.0;

    if (known_avg >= 0.0) {
        // The buffer profile is bitwise the base's; its average is too.
        rep.avg_buffer = known_avg;
    } else {
        // Compute-time-weighted average buffer usage (Fig. 6
        // definition).
        double weighted = 0.0;
        for (int s = 0; s < T; ++s)
            weighted += static_cast<double>(side->usage[s]) *
                        parsed.tiles[s].cost.seconds;
        rep.avg_buffer =
            rep.compute_busy > 0.0 ? weighted / rep.compute_busy : 0.0;
    }
}

bool
EvalContext::Simulate(const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
                      Side *side)
{
    EvalReport &rep = side->report;
    ResetReportForEval(parsed, &rep);
    const int T = parsed.NumTiles();
    const int D = parsed.NumTensors();
    side->order = dlsa.order;
    side->free_point = dlsa.free_point;

    // --- Buffer feasibility (slot-based, Fig. 4 BUFFER row) ---
    ComputeBufferBySlot(parsed, side->free_point, &buffer_diff_,
                        &side->usage);
    Bytes peak = 0;
    for (Bytes b : side->usage) peak = std::max(peak, b);
    rep.peak_buffer = peak;
    if (peak > budget_) {
        rep.why_invalid = "buffer overflow";
        return false;
    }

    BuildGateIndex(parsed, side);

    // --- Two serial resources, two-pointer list scheduling ---
    side->ci_at_rank.resize(D);
    side->rank_at_tile.resize(T);
    rep.tile_times.assign(T, EventTiming{});
    rep.tensor_times.assign(D, EventTiming{});
    if (!RunTimeline(parsed, side, 0, 0, 0.0)) {
        rep.why_invalid = "schedule deadlock (DLSA order)";
        return true;
    }
    FinalizeAggregates(parsed, side);
    rep.valid = true;
    return true;
}

const EvalReport &
EvalContext::Evaluate(const ParsedSchedule &parsed, const DlsaEncoding &dlsa)
{
    SOMA_PROF_SCOPE("eval.full");
    cand_fresh_ = false;
    Side &side = sides_[cand_];
    if (!parsed.valid ||
        !DlsaValid(parsed, dlsa, &why_scratch_, &check_scratch_)) {
        ResetReportForEval(parsed, &side.report);
        side.report.why_invalid =
            parsed.valid ? "dlsa: " + why_scratch_ : parsed.why_invalid;
        return side.report;
    }

    cand_fresh_ = Simulate(parsed, dlsa, &side);
    cand_parsed_ = &parsed;
    return side.report;
}

const EvalReport &
EvalContext::EvaluateDelta(const ParsedSchedule &parsed,
                           const DlsaEncoding &cand, const DlsaDelta &delta)
{
    SOMA_PROF_SCOPE("eval.delta");
    if (!base_ok_ || base_parsed_ != &parsed ||
        delta.kind == DlsaDelta::Kind::kNone) {
        ++delta_stats_.full_fallbacks;
        return Evaluate(parsed, cand);
    }

    ++delta_stats_.delta_evals;
    const Side &base = sides_[base_];
    Side &side = sides_[cand_];
    EvalReport &rep = side.report;
    const int T = parsed.NumTiles();
    const int D = parsed.NumTensors();

    side.usage = base.usage;
    side.order = cand.order;
    side.free_point = cand.free_point;
    cand_fresh_ = true;
    cand_parsed_ = &parsed;

    rep.valid = false;
    rep.why_invalid.clear();
    rep.num_tiles = T;
    rep.num_tensors = D;
    rep.num_flgs = parsed.num_flgs;
    rep.num_lgs = parsed.num_lgs;

    int ci0 = 0;
    int di0 = 0;
    // >= 0: the buffer profile is untouched bitwise — peak and
    // weighted average are the base's, no O(T) rescan.
    double known_avg = -1.0;

    if (delta.kind == DlsaDelta::Kind::kFreePoint) {
        assert(delta.tensor >= 0 && delta.tensor < D);
        const DramTensor &t = parsed.tensors[delta.tensor];

        // Patch the occupancy array: a load lives in [Start, fixed_end),
        // a store in [first_use, End); only the slots between the old
        // and new endpoint change, by +/- the tensor's bytes.
        const TilePos lo =
            std::clamp<TilePos>(std::min(delta.old_point, delta.new_point),
                                0, T);
        const TilePos hi =
            std::clamp<TilePos>(std::max(delta.old_point, delta.new_point),
                                0, T);
        const bool grew = t.IsLoad() ? delta.new_point < delta.old_point
                                     : delta.new_point > delta.old_point;
        const Bytes signed_bytes = grew ? t.bytes : -t.bytes;
        for (TilePos s = lo; s < hi; ++s) side.usage[s] += signed_bytes;

        // An untouched window keeps the base's profile bitwise.
        if (lo >= hi) {
            rep.peak_buffer = base.report.peak_buffer;
            known_avg = base.report.avg_buffer;
        } else {
            rep.peak_buffer =
                *std::max_element(side.usage.begin(), side.usage.end());
        }
        if (rep.peak_buffer > budget_) {
            // Mirror the full evaluator's early buffer-overflow report.
            ResetAggregates(&rep);
            rep.tile_times.clear();
            rep.tensor_times.clear();
            rep.why_invalid = "buffer overflow";
            return rep;
        }

        if (t.IsLoad()) {
            // Only the load's own readiness changed: resume where the
            // base timeline issued it. Once the load is issued, no
            // remaining structure differs from the base.
            di0 = base.rank_of[delta.tensor];
            ci0 = base.ci_at_rank[di0];
        } else {
            // The store now gates a different tile slot: resume at the
            // earlier of the two affected slots. End slots >= NumTiles
            // never gate a tile, so timing is unchanged there.
            TilePos tstar = std::min(delta.old_point, delta.new_point);
            if (tstar >= T) {
                ci0 = T;  // timing untouched: the "prefix" is all of it
                di0 = D;
            } else {
                ci0 = tstar;
                di0 = base.rank_at_tile[tstar];
            }
        }
    } else {  // kOrderMove
        assert(delta.from_rank >= 0 && delta.from_rank < D);
        assert(delta.to_rank >= 0 && delta.to_rank < D);
        const int rmin = std::min(delta.from_rank, delta.to_rank);
        di0 = rmin;
        ci0 = base.ci_at_rank[di0];
        // Free points (hence the whole buffer profile) are untouched.
        rep.peak_buffer = base.report.peak_buffer;
        known_avg = base.report.avg_buffer;
    }

    BuildGateIndex(parsed, &side);

    // Prefix copies only: the resumed run rewrites everything from
    // (ci0, di0) to the end, and reads a tensor's finish time only once
    // its rank is below the DRAM head.
    side.rank_at_tile.resize(T);
    side.ci_at_rank.resize(D);
    rep.tile_times.resize(T);
    rep.tensor_times.resize(D);
    std::copy_n(base.rank_at_tile.begin(), ci0,
                side.rank_at_tile.begin());
    std::copy_n(base.ci_at_rank.begin(), di0, side.ci_at_rank.begin());
    std::copy_n(base.report.tile_times.begin(), ci0,
                rep.tile_times.begin());
    for (int r = 0; r < di0; ++r) {
        const int j = base.order[r];  // == side.order[r] below di0
        rep.tensor_times[j] = base.report.tensor_times[j];
    }

    delta_stats_.last_resume_ci = ci0;
    delta_stats_.last_resume_di = di0;
    const double dram_prev =
        di0 > 0 ? rep.tensor_times[side.order[di0 - 1]].finish : 0.0;
    if (!RunTimeline(parsed, &side, ci0, di0, dram_prev)) {
        // Deadlock. The resumed run reproduced the full trajectory up to
        // the stalled heads; everything beyond them is stale prefix-copy
        // leftovers the canonical report zero-fills.
        for (int t2 = run_dead_ci_; t2 < T; ++t2)
            rep.tile_times[t2] = EventTiming{};
        for (int r = run_dead_di_; r < D; ++r)
            rep.tensor_times[side.order[r]] = EventTiming{};
        ResetAggregates(&rep);
        rep.why_invalid = "schedule deadlock (DLSA order)";
        return rep;
    }
    FinalizeAggregates(parsed, &side, known_avg);
    rep.valid = true;
    if (cross_check_) {
        CrossCheckAgainstFull(parsed, cand);
        ++delta_stats_.cross_check_passes;
    }
    return rep;
}

void
EvalContext::CrossCheckAgainstFull(const ParsedSchedule &parsed,
                                   const DlsaEncoding &dlsa)
{
    Simulate(parsed, dlsa, &check_side_);
    const Side &got = sides_[cand_];
    const Side &ref = check_side_;
    // The two-pointer bookkeeping (ci_at_rank / rank_at_tile) records
    // the traversal, which a resumed run may legally interleave
    // differently; every *value* must match bit-for-bit.
    if (!ReportsEqual(got.report, ref.report) || got.usage != ref.usage) {
        SOMA_ERROR << "delta evaluation diverged from full simulation: "
                   << "fast-path latency=" << got.report.latency
                   << " full latency=" << ref.report.latency
                   << " — delta evaluator bug";
        std::abort();
    }
}

double
EvalContext::PriceCanonical(const ParsedSchedule &parsed, CanonicalDlsa kind,
                            double n, double m)
{
    if (!parsed.valid) return std::numeric_limits<double>::infinity();
    const double cost = CanonicalCost(parsed, kind, n, m);
    if (!cross_check_) return cost;
    // Evaluate's path on the check side: DlsaValid, then Simulate.
    const bool cocco = kind == CanonicalDlsa::kCoccoPrefetch;
    bool dlsa_valid = true;
    auto evaluate = [&](const DlsaEncoding &dlsa) {
        dlsa_valid &= DlsaValid(parsed, dlsa, &why_scratch_, &check_scratch_);
        Simulate(parsed, dlsa, &check_side_);
        return check_side_.report.Cost(n, m);
    };
    double ref = evaluate(cocco ? MakeCoccoDlsa(parsed)
                                : MakeDoubleBufferDlsa(parsed));
    if (!cocco && !check_side_.report.valid)
        ref = evaluate(MakeLazyDlsa(parsed));
    if (!dlsa_valid || std::memcmp(&ref, &cost, sizeof ref) != 0) {
        SOMA_ERROR << "canonical price " << cost << " != evaluated cost "
                   << ref << " (DLSA " << (dlsa_valid ? "valid" : why_scratch_)
                   << ") — canonical pricing bug";
        std::abort();
    }
    return cost;
}

double
EvalContext::CanonicalCost(const ParsedSchedule &parsed, CanonicalDlsa kind,
                           double n, double m)
{
    SOMA_PROF_SCOPE("eval.canonical");
    const int T = parsed.NumTiles();
    const bool cocco = kind == CanonicalDlsa::kCoccoPrefetch;
    // A load's double-buffer Start: the tile before its first use, or
    // before its LG for Cocco's weights (MakeSlackDlsa's clamp).
    auto early_start = [&](const DramTensor &t) {
        const TilePos from =
            cocco && t.kind == DramTensorKind::kWeight
                ? parsed.lg_base[parsed.tiles[t.first_use].lg]
                : t.first_use;
        return std::max<TilePos>(from - 1, 0);
    };

    // One occupancy pass: the lazy DLSA's profile, and the slots the
    // double buffer adds (a load's early Start to its first use, and
    // the slot at a store's lazy End). One prefix sum: both peaks.
    buffer_diff_.assign(T + 1, 0);
    early_diff_.assign(T + 1, 0);
    for (const OnchipInterval &iv : parsed.onchip)
        AddSlots(&buffer_diff_, iv.from, iv.to, iv.bytes);
    for (const DramTensor &t : parsed.tensors) {
        if (t.IsLoad()) {
            AddSlots(&buffer_diff_, t.first_use, t.fixed_end, t.bytes);
            AddSlots(&early_diff_, early_start(t),
                     std::min(t.first_use, t.fixed_end), t.bytes);
        } else {
            AddSlots(&buffer_diff_, t.first_use, t.first_use + 1, t.bytes);
            AddSlots(&early_diff_, t.first_use + 1, t.first_use + 2, t.bytes);
        }
    }
    Bytes lazy = 0, extra = 0, lazy_peak = 0, early_peak = 0;
    for (int s = 0; s < T; ++s) {
        lazy += buffer_diff_[s];
        extra += early_diff_[s];
        lazy_peak = std::max(lazy_peak, lazy);
        early_peak = std::max(early_peak, lazy + extra);
    }
    const bool early = early_peak <= budget_;
    if (!early && (cocco || lazy_peak > budget_)) {
        ++canonical_stats_.priced_infeasible;
        return std::numeric_limits<double>::infinity();
    }
    if (!early) ++canonical_stats_.priced_lazy;

    // One in-order sweep: the order is the index order, and a tile's
    // transfers (its loads, the stores whose End it is) lie below its
    // load_end, so each tile first issues those up to there. Finishes
    // ascend with the index, so a tile's last gate write is its latest.
    tile_finish_.resize(T);
    gate_finish_.assign(T, 0.0);
    double dram = 0.0, compute = 0.0;  // the last transfer's, tile's finish
    int j = 0;
    auto issue_to = [&](int end) {
        for (; j < end; ++j) {
            // It waits for the tiles before `after` (a store: for its
            // producer), and the tile at `gated` waits for it.
            const DramTensor &t = parsed.tensors[j];
            const bool load = t.IsLoad();
            const TilePos after = !load  ? t.first_use + 1
                                  : early ? early_start(t)
                                          : t.first_use;
            dram = std::max(dram, after == 0 ? 0.0 : tile_finish_[after - 1]) +
                   t.seconds;
            const TilePos gated = t.first_use + (load ? 0 : early ? 2 : 1);
            if (gated < T) gate_finish_[gated] = dram;
        }
    };
    for (int i = 0; i < T; ++i) {
        issue_to(parsed.tiles[i].load_end);
        compute = std::max(compute, gate_finish_[i]) +
                  parsed.tiles[i].cost.seconds;
        tile_finish_[i] = compute;
    }
    issue_to(parsed.NumTensors());
    const double latency = j > 0 ? std::max(compute, dram) : compute;
    return ObjectiveCost(CoreEnergyJ(parsed) + DramEnergyJ(parsed, hw_),
                         latency, n, m);
}

void
EvalContext::Commit()
{
    if (!cand_fresh_) return;
    std::swap(cand_, base_);
    cand_fresh_ = false;
    base_parsed_ = cand_parsed_;
    base_ok_ = sides_[base_].report.valid;
}

void
EvalContext::InvalidateBase()
{
    base_ok_ = false;
    cand_fresh_ = false;
    base_parsed_ = nullptr;
    cand_parsed_ = nullptr;
}

}  // namespace soma

#include "sim/eval_context.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>

#include "common/logging.h"
#include "hw/memory_model.h"
#include "obs/prof.h"

namespace soma {

void
ComputeBufferBySlot(const ParsedSchedule &parsed,
                    const std::vector<TilePos> &free_point,
                    std::vector<Bytes> *diff_out, std::vector<Bytes> *usage)
{
    const int slots = parsed.NumTiles();
    diff_out->assign(slots + 1, 0);
    std::vector<Bytes> &diff = *diff_out;
    auto add = [&](TilePos from, TilePos to, Bytes bytes) {
        from = std::clamp<TilePos>(from, 0, slots);
        to = std::clamp<TilePos>(to, 0, slots);
        if (from >= to) return;
        diff[from] += bytes;
        diff[to] -= bytes;
    };
    for (const OnchipInterval &iv : parsed.onchip)
        add(iv.from, iv.to, iv.bytes);
    for (int j = 0; j < parsed.NumTensors(); ++j) {
        const DramTensor &t = parsed.tensors[j];
        if (t.IsLoad()) {
            add(free_point[j], t.fixed_end, t.bytes);
        } else {
            add(t.first_use, free_point[j], t.bytes);
        }
    }
    usage->assign(slots, 0);
    Bytes run = 0;
    for (int s = 0; s < slots; ++s) {
        run += diff[s];
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

EvalContext::EvalContext()
{
    const char *cc = std::getenv("SOMA_CROSS_CHECK");
    if (cc && *cc && !(cc[0] == '0' && cc[1] == '\0')) cross_check_ = true;
}

const ParsedSchedule &
EvalContext::Parse(const Graph &graph, const LfaEncoding &lfa,
                   const CoreArrayEvaluator &core_eval,
                   const ParseOptions &popts)
{
    // The slot is overwritten: a base or uncommitted evaluation against
    // it would describe a schedule that no longer exists.
    if (base_parsed_ == &parsed_) InvalidateBase();
    cand_fresh_ = false;
    cand_parsed_ = nullptr;
    soa_.built_for = nullptr;
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
EvalContext::RebuildStoreBuckets(const ParsedSchedule &parsed,
                                 const Side &side)
{
    const int T = parsed.NumTiles();
    stores_by_end_.resize(T + 1);
    for (auto &bucket : stores_by_end_) bucket.clear();
    for (int j = 0; j < parsed.NumTensors(); ++j) {
        if (!parsed.tensors[j].IsLoad())
            stores_by_end_[side.free_point[j]].push_back(j);
    }
    pending_move_ = false;
}

void
EvalContext::ApplyStoreMove(int tensor, TilePos from, TilePos to)
{
    std::vector<int> &src = stores_by_end_[from];
    auto it = std::find(src.begin(), src.end(), tensor);
    assert(it != src.end());
    src.erase(it);
    stores_by_end_[to].push_back(tensor);
    pending_move_ = true;
    pending_tensor_ = tensor;
    pending_from_ = from;
    pending_to_ = to;
}

void
EvalContext::RevertPendingStoreMove()
{
    if (!pending_move_) return;
    std::vector<int> &dst = stores_by_end_[pending_to_];
    auto it = std::find(dst.begin(), dst.end(), pending_tensor_);
    assert(it != dst.end());
    dst.erase(it);
    stores_by_end_[pending_from_].push_back(pending_tensor_);
    pending_move_ = false;
}

void
EvalContext::BuildSoA(const ParsedSchedule &parsed, TimelineSoA *soa)
{
    const int T = parsed.NumTiles();
    const int D = parsed.NumTensors();
    soa->tile_seconds.resize(T);
    soa->load_begin.resize(T);
    soa->load_end.resize(T);
    // Separate accumulators in parse order: bitwise-identical to the
    // sums the full evaluator used to fold per candidate.
    double sum_seconds = 0.0;
    double sum_energy = 0.0;
    for (int t = 0; t < T; ++t) {
        const TileInfo &tile = parsed.tiles[t];
        soa->tile_seconds[t] = tile.cost.seconds;
        sum_energy += tile.cost.energy_pj;
        sum_seconds += tile.cost.seconds;
        soa->load_begin[t] = tile.load_begin;
        soa->load_end[t] = tile.load_end;
    }
    soa->t_bytes.resize(D);
    soa->t_is_load.resize(D);
    soa->t_first_use.resize(D);
    Bytes sum_bytes = 0;
    for (int j = 0; j < D; ++j) {
        const DramTensor &t = parsed.tensors[j];
        soa->t_bytes[j] = t.bytes;
        sum_bytes += t.bytes;
        soa->t_is_load[j] = t.IsLoad() ? 1 : 0;
        soa->t_first_use[j] = t.first_use;
    }
    soa->sum_seconds = sum_seconds;
    soa->sum_energy_pj = sum_energy;
    soa->sum_dram_bytes = sum_bytes;
    soa->built_for = &parsed;
    soa->hw_for = nullptr;
}

void
EvalContext::FillDramSeconds(const HardwareConfig &hw, TimelineSoA *soa)
{
    const int D = soa->D();
    if (hw.memory_model == nullptr) {
        // Default (analytical) path kept inline so a null seam is
        // trivially the legacy math: DramSeconds is a pure function of
        // the byte count, so hoisting it out of the event loop cannot
        // change a single result bit.
        soa->t_dram_seconds.resize(D);
        for (int j = 0; j < D; ++j)
            soa->t_dram_seconds[j] = hw.DramSeconds(soa->t_bytes[j]);
        soa->dram_busy_seconds = hw.DramSeconds(soa->sum_dram_bytes);
    } else {
        // Seam path. The model sees the tensor-index-ordered transfer
        // list; its contract (memory_model.h) makes the fill a pure
        // function of (parse, hw), which is all the delta logic
        // relies on — the hot loop only ever reads this array.
        DramTransferList transfers;
        transfers.bytes = soa->t_bytes.data();
        transfers.is_load = soa->t_is_load.data();
        transfers.count = D;
        hw.memory_model->FillTransferSeconds(hw, transfers,
                                             &soa->t_dram_seconds);
        soa->dram_busy_seconds = hw.memory_model->ChannelBusySeconds(
            hw, soa->sum_dram_bytes, soa->t_dram_seconds);
    }
    soa->hw_for = &hw;
}

const EvalContext::TimelineSoA &
EvalContext::SoAFor(const ParsedSchedule &parsed, const HardwareConfig &hw)
{
    TimelineSoA *soa = &parsed == &parsed_ ? &soa_ : &soa_ext_;
    if (soa->built_for != &parsed) BuildSoA(parsed, soa);
    if (soa->hw_for != &hw) FillDramSeconds(hw, soa);
    return *soa;
}

bool
EvalContext::RunTimeline(const TimelineSoA &soa, Side *side, int ci, int di,
                         double dram_prev_finish)
{
    SOMA_PROF_SCOPE("eval.timeline");
    const int T = soa.T();
    const int D = soa.D();
    EvalReport &rep = side->report;
    const double *tile_seconds = soa.tile_seconds.data();
    const double *t_dram = soa.t_dram_seconds.data();
    const int *load_begin = soa.load_begin.data();
    const int *load_end = soa.load_end.data();
    const unsigned char *is_load = soa.t_is_load.data();
    const TilePos *first_use = soa.t_first_use.data();

    while (ci < T || di < D) {
        bool progress = false;

        // DRAM head: a load waits for tiles before its Start; a store
        // waits for its producing tile.
        while (di < D) {
            const int j = side->order[di];
            double ready;
            if (is_load[j]) {
                TilePos s = side->free_point[j];
                if (s > ci) break;  // tiles before Start not yet scheduled
                ready = (s == 0) ? 0.0 : side->tile_finish[s - 1];
            } else {
                if (first_use[j] >= ci) break;  // producer not scheduled
                ready = side->tile_finish[first_use[j]];
            }
            const double start = std::max(dram_prev_finish, ready);
            const double finish = start + t_dram[j];
            rep.tensor_times[j] = EventTiming{start, finish};
            side->tensor_finish[j] = finish;
            side->ci_at_rank[di] = ci;
            dram_prev_finish = finish;
            ++di;
            progress = true;
        }

        // Compute head: waits for the previous tile, its operand loads,
        // and all stores whose End equals this tile.
        while (ci < T) {
            double start = (ci == 0) ? 0.0 : side->tile_finish[ci - 1];
            bool blocked = false;
            for (int j = load_begin[ci]; j < load_end[ci]; ++j) {
                if (side->tensor_finish[j] < 0.0) { blocked = true; break; }
                start = std::max(start, side->tensor_finish[j]);
            }
            if (!blocked) {
                for (int j : stores_by_end_[ci]) {
                    if (side->tensor_finish[j] < 0.0) {
                        blocked = true;
                        break;
                    }
                    start = std::max(start, side->tensor_finish[j]);
                }
            }
            if (blocked) break;
            const double finish = start + tile_seconds[ci];
            rep.tile_times[ci] = EventTiming{start, finish};
            side->tile_finish[ci] = finish;
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
EvalContext::FinalizeAggregates(const TimelineSoA &soa,
                                const HardwareConfig &hw, Ops total_ops,
                                Side *side, double known_avg)
{
    EvalReport &rep = side->report;
    const int T = soa.T();

    double makespan = 0.0;
    for (double f : side->tile_finish) makespan = std::max(makespan, f);
    for (double f : side->tensor_finish) makespan = std::max(makespan, f);
    rep.latency = makespan;

    rep.compute_busy = soa.sum_seconds;
    rep.dram_bytes = soa.sum_dram_bytes;
    rep.dram_busy = soa.dram_busy_seconds;
    rep.core_energy_j = soa.sum_energy_pj * 1e-12;
    rep.dram_energy_j = static_cast<double>(soa.sum_dram_bytes) *
                        hw.energy.dram_pj_per_byte * 1e-12;

    double peak_ops = hw.PeakOpsPerSecond();
    rep.compute_util = static_cast<double>(total_ops) /
                       (peak_ops * rep.latency);
    rep.dram_util = rep.dram_busy / rep.latency;
    double bound = std::max(rep.compute_busy, rep.dram_busy);
    rep.theory_max_util =
        bound > 0.0 ? static_cast<double>(total_ops) / (peak_ops * bound)
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
                        soa.tile_seconds[s];
        rep.avg_buffer =
            rep.compute_busy > 0.0 ? weighted / rep.compute_busy : 0.0;
    }
}

const EvalReport &
EvalContext::Evaluate(const Graph &graph, const HardwareConfig &hw,
                      const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
                      Bytes buffer_budget, Ops total_ops)
{
    SOMA_PROF_SCOPE("eval.full");
    (void)graph;
    // Keep the base's buckets coherent before the rebuild below claims
    // them for this candidate: the committed base itself survives full
    // evaluations (EvaluateDelta restores the buckets lazily).
    RevertPendingStoreMove();

    // External parses have no invalidation hook (Parse only guards the
    // context-owned slot), so re-mirror them on every full pass.
    if (&parsed != &parsed_) soa_ext_.built_for = nullptr;

    Side &side = sides_[cand_];
    EvalReport &rep = side.report;
    ResetReportForEval(parsed, &rep);
    cand_fresh_ = false;

    if (!parsed.valid) {
        rep.why_invalid = parsed.why_invalid;
        return rep;
    }
    if (!DlsaValid(parsed, dlsa, &why_scratch_, &check_scratch_)) {
        rep.why_invalid = "dlsa: " + why_scratch_;
        return rep;
    }

    side.order = dlsa.order;
    side.free_point = dlsa.free_point;
    const int T = parsed.NumTiles();
    const int D = parsed.NumTensors();
    side.rank_of.assign(D, 0);
    for (int r = 0; r < D; ++r) side.rank_of[side.order[r]] = r;

    // --- Buffer feasibility (slot-based, Fig. 4 BUFFER row) ---
    ComputeBufferBySlot(parsed, side.free_point, &buffer_diff_,
                        &side.usage);
    Bytes peak = 0;
    for (Bytes b : side.usage) peak = std::max(peak, b);
    rep.peak_buffer = peak;
    if (peak > buffer_budget) {
        rep.why_invalid = "buffer overflow";
        return rep;
    }

    RebuildStoreBuckets(parsed, side);
    buckets_for_base_ = false;

    const TimelineSoA &soa = SoAFor(parsed, hw);

    // --- Two serial resources, two-pointer list scheduling ---
    side.tile_finish.assign(T, 0.0);
    side.tensor_finish.assign(D, -1.0);
    side.ci_at_rank.assign(D, 0);
    side.rank_at_tile.assign(T, 0);
    rep.tile_times.assign(T, EventTiming{});
    rep.tensor_times.assign(D, EventTiming{});

    cand_fresh_ = true;
    cand_parsed_ = &parsed;
    cand_budget_ = buffer_budget;
    cand_ops_ = total_ops;

    if (!RunTimeline(soa, &side, 0, 0, 0.0)) {
        rep.why_invalid = "schedule deadlock (DLSA order)";
        return rep;
    }

    FinalizeAggregates(soa, hw, total_ops, &side);
    rep.valid = true;
    return rep;
}

const EvalReport &
EvalContext::EvaluateDelta(const Graph &graph, const HardwareConfig &hw,
                           const ParsedSchedule &parsed,
                           const DlsaEncoding &cand, const DlsaDelta &delta,
                           Bytes buffer_budget, Ops total_ops)
{
    SOMA_PROF_SCOPE("eval.delta");
    RevertPendingStoreMove();
    if (!base_ok_ || base_parsed_ != &parsed ||
        base_budget_ != buffer_budget || base_ops_ != total_ops ||
        delta.kind == DlsaDelta::Kind::kNone) {
        ++delta_stats_.full_fallbacks;
        return Evaluate(graph, hw, parsed, cand, buffer_budget, total_ops);
    }

    ++delta_stats_.delta_evals;
    const Side &base = sides_[base_];
    if (!buckets_for_base_) {
        // A full evaluation since the last Commit rebuilt the buckets
        // for its own candidate; restore the base's view.
        RebuildStoreBuckets(parsed, base);
        buckets_for_base_ = true;
    }

    Side &side = sides_[cand_];
    EvalReport &rep = side.report;
    const int T = parsed.NumTiles();
    const int D = parsed.NumTensors();

    side.usage = base.usage;
    side.rank_of = base.rank_of;
    side.order = cand.order;
    side.free_point = cand.free_point;
    cand_fresh_ = true;
    cand_parsed_ = &parsed;
    cand_budget_ = buffer_budget;
    cand_ops_ = total_ops;

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

        // Incremental peak: only [lo, hi) changed. Growth can only
        // raise the peak; shrinkage leaves it intact unless the base
        // peak could have sat inside the window (then rescan). Integer
        // max, so this is exact.
        Bytes peak;
        if (lo >= hi) {
            peak = base.report.peak_buffer;
            known_avg = base.report.avg_buffer;
        } else {
            Bytes local = 0;
            for (TilePos s = lo; s < hi; ++s)
                local = std::max(local, side.usage[s]);
            if (grew) {
                peak = std::max(base.report.peak_buffer, local);
            } else if (base.report.peak_buffer > local + t.bytes) {
                peak = base.report.peak_buffer;
            } else {
                peak = 0;
                for (Bytes b : side.usage) peak = std::max(peak, b);
            }
        }
        rep.peak_buffer = peak;
        if (peak > buffer_budget) {
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
            ApplyStoreMove(delta.tensor, delta.old_point, delta.new_point);
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
        const int rmax = std::max(delta.from_rank, delta.to_rank);
        for (int r = rmin; r <= rmax; ++r) side.rank_of[side.order[r]] = r;
        di0 = rmin;
        ci0 = base.ci_at_rank[di0];
        // Free points (hence the whole buffer profile) are untouched.
        rep.peak_buffer = base.report.peak_buffer;
        known_avg = base.report.avg_buffer;
    }

    // Prefix copies only: the resumed run rewrites everything from
    // (ci0, di0) to the end. tensor_finish doubles as the issued flag
    // the gating checks read, so unissued ranks are invalidated in the
    // same pass.
    side.tile_finish.resize(T);
    side.rank_at_tile.resize(T);
    side.tensor_finish.resize(D);
    side.ci_at_rank.resize(D);
    rep.tile_times.resize(T);
    rep.tensor_times.resize(D);
    std::copy_n(base.tile_finish.begin(), ci0, side.tile_finish.begin());
    std::copy_n(base.rank_at_tile.begin(), ci0,
                side.rank_at_tile.begin());
    std::copy_n(base.ci_at_rank.begin(), di0, side.ci_at_rank.begin());
    std::copy_n(base.report.tile_times.begin(), ci0,
                rep.tile_times.begin());
    for (int r = 0; r < di0; ++r) {
        const int j = base.order[r];  // == side.order[r] below di0
        side.tensor_finish[j] = base.tensor_finish[j];
        rep.tensor_times[j] = base.report.tensor_times[j];
    }
    for (int r = di0; r < D; ++r)
        side.tensor_finish[side.order[r]] = -1.0;

    delta_stats_.last_resume_ci = ci0;
    delta_stats_.last_resume_di = di0;
    const double dram_prev =
        di0 > 0 ? side.tensor_finish[side.order[di0 - 1]] : 0.0;
    const TimelineSoA &soa = SoAFor(parsed, hw);
    if (!RunTimeline(soa, &side, ci0, di0, dram_prev)) {
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
    FinalizeAggregates(soa, hw, total_ops, &side, known_avg);
    rep.valid = true;
    if (cross_check_) {
        CrossCheckAgainstFull(hw, parsed, cand, buffer_budget, total_ops);
        ++delta_stats_.cross_check_passes;
    }
    return rep;
}

void
EvalContext::CrossCheckAgainstFull(const HardwareConfig &hw,
                                   const ParsedSchedule &parsed,
                                   const DlsaEncoding &dlsa,
                                   Bytes buffer_budget, Ops total_ops)
{
    const Side &got = sides_[cand_];
    Side &ref = check_side_;
    EvalReport &rrep = ref.report;
    ResetReportForEval(parsed, &rrep);
    const int T = parsed.NumTiles();
    const int D = parsed.NumTensors();
    ref.order = dlsa.order;
    ref.free_point = dlsa.free_point;
    ref.rank_of.assign(D, 0);
    for (int r = 0; r < D; ++r) ref.rank_of[ref.order[r]] = r;
    ComputeBufferBySlot(parsed, ref.free_point, &buffer_diff_, &ref.usage);
    Bytes peak = 0;
    for (Bytes b : ref.usage) peak = std::max(peak, b);
    rrep.peak_buffer = peak;
    ref.tile_finish.assign(T, 0.0);
    ref.tensor_finish.assign(D, -1.0);
    ref.ci_at_rank.assign(D, 0);
    ref.rank_at_tile.assign(T, 0);
    rrep.tile_times.assign(T, EventTiming{});
    rrep.tensor_times.assign(D, EventTiming{});
    const TimelineSoA &soa = SoAFor(parsed, hw);
    // The store buckets describe `dlsa` after every fast path (order
    // and load moves leave them untouched, a store move was applied) —
    // the reference run uses them as-is.
    const bool ok =
        peak <= buffer_budget && RunTimeline(soa, &ref, 0, 0, 0.0);
    if (ok) {
        FinalizeAggregates(soa, hw, total_ops, &ref);
        rrep.valid = true;
    }
    // The two-pointer bookkeeping (ci_at_rank / rank_at_tile) records
    // the traversal, which a resumed run may legally interleave
    // differently; every *value* must match bit-for-bit.
    const bool same = ok && ReportsEqual(got.report, rrep) &&
                      got.tile_finish == ref.tile_finish &&
                      got.tensor_finish == ref.tensor_finish &&
                      got.usage == ref.usage;
    if (!same) {
        SOMA_ERROR << "delta evaluation diverged from full simulation: "
                   << "fast-path latency=" << got.report.latency
                   << " full latency=" << rrep.latency
                   << " — delta evaluator bug";
        std::abort();
    }
}

void
EvalContext::Commit()
{
    if (!cand_fresh_) return;
    std::swap(cand_, base_);
    cand_fresh_ = false;
    // The buckets describe the just-promoted base: a delta fast path
    // left them matching its candidate (any pending store move is now
    // permanent) and the full path rebuilt them for it.
    pending_move_ = false;
    buckets_for_base_ = true;
    base_parsed_ = cand_parsed_;
    base_budget_ = cand_budget_;
    base_ops_ = cand_ops_;
    base_ok_ = sides_[base_].report.valid;
}

void
EvalContext::InvalidateBase()
{
    base_ok_ = false;
    cand_fresh_ = false;
    pending_move_ = false;
    buckets_for_base_ = false;
    base_parsed_ = nullptr;
    cand_parsed_ = nullptr;
}

}  // namespace soma

/**
 * @file
 * Incremental evaluation engine for the SA inner loop.
 *
 * The paper's search evaluates millions of candidate schemes; the seed
 * implementation rebuilt every per-candidate data structure (parsed
 * schedule, buffer difference array, DRAM/compute timelines) from
 * scratch for each one. An EvalContext owns all of that scratch state
 * per search thread, so repeated evaluations are allocation-free after
 * warm-up, and it supports *incremental* re-evaluation of DLSA-only
 * mutations (free-point / order moves): EvaluateDelta patches the
 * committed base's buffer occupancy and resumes the two-pointer
 * timeline at the earliest affected (tile, rank) checkpoint, running
 * it to the end. LFA candidates change the parse and go through
 * Evaluate.
 *
 * Timeline state is mirrored into SoA arrays (per-tile seconds, CSR
 * operand lists, per-tensor DRAM seconds, cached aggregate sums) so the
 * timeline runs over contiguous memory.
 *
 * Incremental results are bit-identical to full evaluation: the resumed
 * timeline executes the same recurrences on the same operands from a
 * checkpoint the base trajectory passed through, and the integer
 * buffer-occupancy array is patched exactly. `set_cross_check(true)`
 * (or SOMA_CROSS_CHECK=1) re-parses every Parse from scratch and runs
 * the full simulation after every delta evaluation, aborting on any
 * divergence.
 */
#ifndef SOMA_SIM_EVAL_CONTEXT_H
#define SOMA_SIM_EVAL_CONTEXT_H

#include <cstdint>
#include <string>
#include <vector>

#include "hw/hardware.h"
#include "notation/parser.h"
#include "sim/report.h"

namespace soma {

/**
 * How a candidate DLSA differs from an EvalContext's committed base.
 * Produced by the DLSA mutation operators; consumed by
 * EvalContext::EvaluateDelta.
 */
struct DlsaDelta {
    enum class Kind {
        kNone,       ///< unknown / not a single-move delta: full evaluation
        kOrderMove,  ///< `tensor` moved from `from_rank` to `to_rank`
        kFreePoint,  ///< `tensor`'s free endpoint moved old->new
    };
    Kind kind = Kind::kNone;
    int tensor = -1;
    int from_rank = -1;       ///< kOrderMove: rank of `tensor` in the base
    int to_rank = -1;         ///< kOrderMove: rank of `tensor` in the cand
    TilePos old_point = 0;    ///< kFreePoint: base free endpoint
    TilePos new_point = 0;    ///< kFreePoint: candidate free endpoint
};

/**
 * Buffer occupancy per tile slot via a difference array. Slots are
 * [0, NumTiles()); shared by PeakBufferUsage and the EvalContext.
 * @p diff is caller-owned scratch, resized to NumTiles() + 1 entries
 * (contents ignored and overwritten).
 */
void ComputeBufferBySlot(const ParsedSchedule &parsed,
                         const std::vector<TilePos> &free_point,
                         std::vector<Bytes> *diff, std::vector<Bytes> *usage);

/**
 * Per-thread evaluation context. Typical SA usage:
 *
 *   ctx.Evaluate(...);          // full evaluation of the initial state
 *   ctx.Commit();               // make it the incremental base
 *   loop:
 *     mutate -> delta
 *     ctx.EvaluateDelta(...);   // suffix-resumed re-evaluation
 *     if accepted: ctx.Commit();
 *
 * Not thread safe; create one per search chain.
 */
class EvalContext {
  public:
    EvalContext();

    /** Counters for the delta fast paths (cumulative per context). */
    struct DeltaStats {
        std::uint64_t delta_evals = 0;   ///< EvaluateDelta fast paths
        std::uint64_t full_fallbacks = 0;///< EvaluateDelta calls gone full
        std::uint64_t cross_check_passes = 0;
        int last_resume_ci = 0;   ///< last resume point: compute slot
        int last_resume_di = 0;   ///< last resume point: DRAM rank
    };

    /**
     * Parse an LFA with reusable scratch (including the group memo of
     * the incremental parse). The returned reference stays owned by the
     * context and is overwritten by the next Parse call, which also
     * drops a committed base evaluated against it.
     */
    const ParsedSchedule &Parse(const Graph &graph, const LfaEncoding &lfa,
                                const CoreArrayEvaluator &core_eval,
                                const ParseOptions &popts = {});

    /**
     * Full evaluation (semantics of EvaluateSchedule) into the context's
     * reusable report. The returned reference is overwritten by the next
     * evaluation. The committed base (if any) is left intact, so a full
     * evaluation of one candidate does not cost later candidates their
     * delta path.
     */
    const EvalReport &Evaluate(const Graph &graph, const HardwareConfig &hw,
                               const ParsedSchedule &parsed,
                               const DlsaEncoding &dlsa, Bytes buffer_budget,
                               Ops total_ops);

    /**
     * Evaluate a candidate that differs from the committed base by
     * @p delta. Resumes the two-pointer timeline from the earliest
     * affected (tile, rank) checkpoint instead of replaying it from
     * slot 0. Falls back to Evaluate when there is no usable base (not
     * committed, different parse/budget, or delta.kind == kNone).
     *
     * Precondition: @p cand is a legal DLSA (the mutation operators only
     * produce legal moves); the data-existence check is skipped here.
     */
    const EvalReport &EvaluateDelta(const Graph &graph,
                                    const HardwareConfig &hw,
                                    const ParsedSchedule &parsed,
                                    const DlsaEncoding &cand,
                                    const DlsaDelta &delta,
                                    Bytes buffer_budget, Ops total_ops);

    /** Promote the last evaluated candidate to the incremental base. */
    void Commit();

    /** Drop the incremental base (e.g. after adopting a foreign state). */
    void InvalidateBase();

    /** Whether EvaluateDelta currently has a usable base. */
    bool HasBase() const { return base_ok_; }

    /** Cross-check mode (default: off, unless SOMA_CROSS_CHECK is set
     *  to a value other than "" or "0"): every Parse also runs the
     *  from-scratch reference parse (ParseOptions::cross_check), and
     *  every delta evaluation the full simulation; any divergence
     *  aborts. */
    void set_cross_check(bool on) { cross_check_ = on; }
    bool cross_check() const { return cross_check_; }

    const DeltaStats &delta_stats() const { return delta_stats_; }

    /** The incremental-parse scratch (read-only): span tracers read the
     *  group-memo telemetry off it (last_dirty_groups /
     *  last_clean_groups / last_remapped_groups) after a Parse call. */
    const ParseScratch &parse_scratch() const { return parse_scratch_; }

  private:
    /** One copy of all per-evaluation result state. Two instances are
     *  kept so a candidate can be evaluated without clobbering the base
     *  it resumes from; Commit swaps them. (A third backs cross-check
     *  reference runs.) */
    struct Side {
        EvalReport report;
        std::vector<double> tile_finish;
        std::vector<double> tensor_finish;  ///< -1: unscheduled
        std::vector<int> ci_at_rank;   ///< compute head when rank issued
        std::vector<int> rank_at_tile; ///< DRAM head when tile issued
        std::vector<Bytes> usage;      ///< buffer occupancy per slot
        std::vector<int> order;        ///< DLSA copy (rank -> tensor)
        std::vector<int> rank_of;      ///< inverse of order
        std::vector<TilePos> free_point;
    };

    /** SoA mirror of the timeline-relevant parse content: contiguous
     *  arrays the inner loop streams over, plus the aggregate sums
     *  FinalizeAggregates would otherwise recompute per candidate.
     *  Rebuilt only when the backing parse changes (tracked by pointer
     *  identity, like the base parse). */
    struct TimelineSoA {
        const ParsedSchedule *built_for = nullptr;
        const HardwareConfig *hw_for = nullptr;
        std::vector<double> tile_seconds;
        /// Per tile: operand-load tensor ids [load_begin, load_end).
        std::vector<int> load_begin;
        std::vector<int> load_end;
        std::vector<Bytes> t_bytes;
        /// Per-tensor channel seconds from the hw's MemoryModel seam
        /// (hw.DramSeconds(bytes) for the analytical/null backend).
        std::vector<double> t_dram_seconds;
        std::vector<unsigned char> t_is_load;
        std::vector<TilePos> t_first_use;
        double sum_seconds = 0.0;    ///< == full-eval compute_busy
        double sum_energy_pj = 0.0;  ///< == full-eval core picojoules
        Bytes sum_dram_bytes = 0;    ///< == parsed.TotalDramBytes()
        /// Model-provided aggregate for EvalReport::dram_busy, filled
        /// alongside t_dram_seconds (constant per (parse, hw)).
        double dram_busy_seconds = 0.0;
        int T() const { return static_cast<int>(tile_seconds.size()); }
        int D() const { return static_cast<int>(t_bytes.size()); }
    };

    void ResetReportForEval(const ParsedSchedule &parsed, EvalReport *rep);
    static void ResetAggregates(EvalReport *rep);

    /** The SoA mirror of @p parsed, rebuilt/refreshed on demand. */
    const TimelineSoA &SoAFor(const ParsedSchedule &parsed,
                              const HardwareConfig &hw);
    static void BuildSoA(const ParsedSchedule &parsed, TimelineSoA *soa);
    static void FillDramSeconds(const HardwareConfig &hw, TimelineSoA *soa);

    /** Where a failed (deadlocked) timeline run left its heads — the
     *  first unwritten tile slot / DRAM rank, so delta callers can
     *  clear exactly the stale suffix of their prefix-copied report. */
    int run_dead_ci_ = 0;
    int run_dead_di_ = 0;
    /** Run the two-pointer timeline from heads (@p ci, @p di) to the
     *  end; false on deadlock. */
    bool RunTimeline(const TimelineSoA &soa, Side *side, int ci, int di,
                     double dram_prev_finish);

    /** @p known_avg >= 0 skips the weighted-usage scan (the buffer
     *  profile is bitwise the base's, e.g. after an order move). */
    void FinalizeAggregates(const TimelineSoA &soa, const HardwareConfig &hw,
                            Ops total_ops, Side *side,
                            double known_avg = -1.0);
    void RebuildStoreBuckets(const ParsedSchedule &parsed, const Side &side);
    void ApplyStoreMove(int tensor, TilePos from, TilePos to);
    void RevertPendingStoreMove();

    /** Run the reference full simulation into check_side_ and abort on
     *  any divergence from the fast-path result in sides_[cand_].
     *  Requires the store buckets to describe @p dlsa (true after any
     *  fast path). */
    void CrossCheckAgainstFull(const HardwareConfig &hw,
                               const ParsedSchedule &parsed,
                               const DlsaEncoding &dlsa, Bytes buffer_budget,
                               Ops total_ops);

    ParseScratch parse_scratch_;
    ParsedSchedule parsed_;  ///< the slot Parse writes
    DlsaCheckScratch check_scratch_;
    std::string why_scratch_;

    /** SoA mirrors of parsed_ and of external parses (DLSA-stage walks
     *  evaluate one caller-owned parse). */
    TimelineSoA soa_;
    TimelineSoA soa_ext_;

    /** Buffer difference array (ComputeBufferBySlot scratch); keeps
     *  its capacity, so warmed-up evaluations do no heap work. */
    std::vector<Bytes> buffer_diff_;

    /** Stores indexed by their End slot, kept in sync with either the
     *  base free points (plus at most one pending candidate move) or —
     *  after a full evaluation — the last candidate's
     *  (buckets_for_base_ says which). */
    std::vector<std::vector<int>> stores_by_end_;

    Side sides_[2];
    Side check_side_;  ///< cross-check reference result
    int cand_ = 0;  ///< side written by the next evaluation
    int base_ = 1;  ///< side holding the committed base

    const ParsedSchedule *base_parsed_ = nullptr;  ///< base's parse
    const ParsedSchedule *cand_parsed_ = nullptr;  ///< last eval's parse
    Bytes base_budget_ = -1;
    Ops base_ops_ = -1;
    Bytes cand_budget_ = -1;
    Ops cand_ops_ = -1;
    bool base_ok_ = false;
    bool cand_fresh_ = false;  ///< cand side holds an uncommitted result
    bool buckets_for_base_ = false;

    bool cross_check_ = false;
    DeltaStats delta_stats_;

    bool pending_move_ = false;
    int pending_tensor_ = -1;
    TilePos pending_from_ = 0;
    TilePos pending_to_ = 0;
};

}  // namespace soma

#endif  // SOMA_SIM_EVAL_CONTEXT_H

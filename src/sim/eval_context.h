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
 * it to the end. LFA-stage and Cocco candidates change the parse and
 * need only a cost under a canonical DLSA, which PriceCanonical gives
 * without building it (DESIGN.md "Canonical pricing").
 *
 * The timeline reads the parse's tiles and DRAM tensors directly and
 * writes only the report's timings. The parse carries everything no
 * DLSA change can move, priced for its hardware: tile costs, per-tensor
 * DRAM seconds, the channel-busy aggregate and the compute, energy and
 * byte sums. The context derives nothing from it. A tile waits on one
 * DRAM rank, its gate: on the serial channel the highest-ranked of its
 * loads and ending stores finishes last (DESIGN.md "One gate per tile").
 *
 * Incremental results are bit-identical to full evaluation: the resumed
 * timeline executes the same recurrences on the same operands from a
 * checkpoint the base trajectory passed through, and the integer
 * buffer-occupancy array is patched exactly. `set_cross_check(true)`
 * (or SOMA_CROSS_CHECK=1) re-parses every Parse from scratch, runs the
 * full simulation after every delta evaluation and builds and
 * evaluates the DLSA behind every canonical price, aborting on any
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

/** The fixed DLSA an LFA-stage or Cocco candidate is priced under. */
enum class CanonicalDlsa {
    kDoubleBufferElseLazy,  ///< MakeDoubleBufferDlsa, else MakeLazyDlsa
    kCoccoPrefetch,         ///< MakeCoccoDlsa: weights from the LG head
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
 *   EvalContext ctx(hw, budget, total_ops);
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
    /**
     * Bind what every report of this context is computed against: the
     * hardware point's DRAM energy per byte and peak throughput (the
     * parse carries every duration), the GBUF bytes a scheme may use
     * (hw.gbuf_bytes, or a smaller stage budget) and the utilization
     * numerator (graph.TotalOps()).
     */
    EvalContext(const HardwareConfig &hw, Bytes buffer_budget,
                Ops total_ops);

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
    const EvalReport &Evaluate(const ParsedSchedule &parsed,
                               const DlsaEncoding &dlsa);

    /**
     * Evaluate a candidate that differs from the committed base by
     * @p delta. Resumes the two-pointer timeline from the earliest
     * affected (tile, rank) checkpoint instead of replaying it from
     * slot 0. Falls back to Evaluate when there is no usable base (not
     * committed, a different parse, or delta.kind == kNone).
     *
     * Precondition: @p cand is a legal DLSA (the mutation operators only
     * produce legal moves); the data-existence check is skipped here.
     */
    const EvalReport &EvaluateDelta(const ParsedSchedule &parsed,
                                    const DlsaEncoding &cand,
                                    const DlsaDelta &delta);

    /**
     * Energy^n x Delay^m of @p parsed under its canonical DLSA (+inf
     * when the parse is invalid or none fits the budget), bitwise
     * Evaluate(parsed, <that DLSA>).Cost(n, m), but from one occupancy
     * pass and one in-order sweep over ParseLfaInto's tensor order,
     * building no DLSA, gate index or timings; the base and candidate
     * sides stay as they were.
     */
    double PriceCanonical(const ParsedSchedule &parsed, CanonicalDlsa kind,
                          double n, double m);

    /** PriceCanonical outcomes besides the double buffer (cumulative). */
    struct CanonicalStats {
        std::int64_t priced_lazy = 0;        ///< only the lazy DLSA fit
        std::int64_t priced_infeasible = 0;  ///< no canonical DLSA fit
    };
    const CanonicalStats &canonical_stats() const { return canonical_stats_; }

    /** Promote the last evaluated candidate to the incremental base. */
    void Commit();

    /** Drop the incremental base (e.g. after adopting a foreign state). */
    void InvalidateBase();

    /** Whether EvaluateDelta currently has a usable base. */
    bool HasBase() const { return base_ok_; }

    /** Cross-check mode (default: off, unless SOMA_CROSS_CHECK is set
     *  to a value other than "" or "0"): every Parse also runs the
     *  from-scratch reference parse (ParseOptions::cross_check), every
     *  delta evaluation the full simulation, and every PriceCanonical
     *  builds its DLSA and evaluates it in full, DlsaValid included;
     *  any divergence aborts. */
    void set_cross_check(bool on) { cross_check_ = on; }
    bool cross_check() const { return cross_check_; }

    const DeltaStats &delta_stats() const { return delta_stats_; }

    /** The incremental-parse scratch (read-only): span tracers read the
     *  group-memo telemetry off it (last_dirty_groups /
     *  last_clean_groups) after a Parse call. */
    const ParseScratch &parse_scratch() const { return parse_scratch_; }

  private:
    /** One copy of all per-evaluation result state. Two instances are
     *  kept so a candidate can be evaluated without clobbering the base
     *  it resumes from; Commit swaps them. (A third backs cross-check
     *  reference runs.) The report's tile_times / tensor_times are the
     *  timeline itself: the recurrence reads its finish times back. */
    struct Side {
        EvalReport report;
        std::vector<int> ci_at_rank;   ///< compute head when rank issued
        std::vector<int> rank_at_tile; ///< DRAM head when tile issued
        std::vector<Bytes> usage;      ///< buffer occupancy per slot
        std::vector<int> order;        ///< DLSA copy (rank -> tensor)
        std::vector<int> rank_of;      ///< inverse of order
        /** Per tile: the highest rank among the transfers it waits for
         *  (its loads and the stores whose End it is), or -1. */
        std::vector<int> gate;
        std::vector<TilePos> free_point;
    };

    void ResetReportForEval(const ParsedSchedule &parsed, EvalReport *rep);
    static void ResetAggregates(EvalReport *rep);

    /** The full simulation of @p dlsa into @p side: copy the DLSA,
     *  build the occupancy and the gate index, run the timeline from
     *  (0, 0) and finalize. False when the occupancy overflows the
     *  budget, before any timeline ran. */
    bool Simulate(const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
                  Side *side);

    /** Build @p side's rank_of and gate from its order and free
     *  points, in one pass over the ranks. */
    static void BuildGateIndex(const ParsedSchedule &parsed, Side *side);

    /** Where a failed (deadlocked) timeline run left its heads — the
     *  first unwritten tile slot / DRAM rank, so delta callers can
     *  clear exactly the stale suffix of their prefix-copied report. */
    int run_dead_ci_ = 0;
    int run_dead_di_ = 0;
    /** Run the two-pointer timeline from heads (@p ci, @p di) to the
     *  end; false on deadlock. */
    bool RunTimeline(const ParsedSchedule &parsed, Side *side, int ci,
                     int di, double dram_prev_finish);

    /** @p known_avg >= 0 skips the weighted-usage scan (the buffer
     *  profile is bitwise the base's, e.g. after an order move). */
    void FinalizeAggregates(const ParsedSchedule &parsed, Side *side,
                            double known_avg = -1.0);

    /** Run the full simulation into check_side_ and abort on any
     *  divergence from the fast-path result in sides_[cand_]. */
    void CrossCheckAgainstFull(const ParsedSchedule &parsed,
                               const DlsaEncoding &dlsa);

    /** PriceCanonical of a valid parse, without the cross-check. */
    double CanonicalCost(const ParsedSchedule &parsed, CanonicalDlsa kind,
                         double n, double m);

    const HardwareConfig hw_;
    const Bytes budget_;
    const Ops total_ops_;

    ParseScratch parse_scratch_;
    ParsedSchedule parsed_;  ///< the slot Parse writes
    DlsaCheckScratch check_scratch_;
    std::string why_scratch_;

    /** Difference arrays (ComputeBufferBySlot's; CanonicalCost's lazy
     *  and double-buffer extra) and CanonicalCost's per-tile finishes,
     *  kept at capacity so warmed-up evaluations do no heap work. */
    std::vector<Bytes> buffer_diff_, early_diff_;
    std::vector<double> tile_finish_, gate_finish_;

    Side sides_[2];
    Side check_side_;  ///< cross-check reference result
    int cand_ = 0;  ///< side written by the next evaluation
    int base_ = 1;  ///< side holding the committed base

    const ParsedSchedule *base_parsed_ = nullptr;  ///< base's parse
    const ParsedSchedule *cand_parsed_ = nullptr;  ///< last eval's parse
    bool base_ok_ = false;
    bool cand_fresh_ = false;  ///< cand side holds an uncommitted result

    bool cross_check_ = false;
    DeltaStats delta_stats_;
    CanonicalStats canonical_stats_;
};

}  // namespace soma

#endif  // SOMA_SIM_EVAL_CONTEXT_H

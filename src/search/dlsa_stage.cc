#include "search/dlsa_stage.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "obs/trace.h"
#include "search/dlsa_heuristics.h"
#include "search/soma.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"

namespace soma {

namespace {

/**
 * Legal rank range for tensor @p j within @p order: cross-LG ifmap loads
 * must stay after every store of their source layer; stores must stay
 * before every load that reads them.
 */
void
RankBounds(const ParsedSchedule &parsed, const std::vector<int> &order,
           int j, int *lo, int *hi)
{
    const int d = static_cast<int>(order.size());
    *lo = 0;
    *hi = d - 1;
    const DramTensor &t = parsed.tensors[j];
    if (t.kind == DramTensorKind::kIfmap && t.src_layer != kNoLayer) {
        for (int r = 0; r < d; ++r) {
            const DramTensor &o = parsed.tensors[order[r]];
            if (o.kind == DramTensorKind::kOfmap && o.layer == t.src_layer)
                *lo = std::max(*lo, r + 1);
        }
    } else if (t.kind == DramTensorKind::kOfmap) {
        for (int r = d - 1; r >= 0; --r) {
            const DramTensor &o = parsed.tensors[order[r]];
            if (o.kind == DramTensorKind::kIfmap && o.src_layer == t.layer)
                *hi = std::min(*hi, r - 1);
        }
    }
}

}  // namespace

DlsaMutator::DlsaMutator(const ParsedSchedule &parsed) : parsed_(parsed)
{
    weights_.reserve(parsed.NumTensors());
    for (const DramTensor &t : parsed.tensors)
        weights_.push_back(static_cast<double>(t.bytes));
}

bool
DlsaMutator::operator()(const DlsaEncoding &cur, DlsaEncoding *next,
                        Rng &rng, DlsaDelta *delta) const
{
    const ParsedSchedule &parsed = parsed_;
    const int d = parsed.NumTensors();
    if (d == 0) return false;
    *next = cur;
    delta->kind = DlsaDelta::Kind::kNone;
    for (int attempt = 0; attempt < 4; ++attempt) {
        int picked = rng.WeightedIndex(weights_);
        int j = picked < 0 ? 0 : picked;
        if (rng.Flip()) {
            // Change DRAM Tensor Order: move j to another legal rank.
            int cur_rank = -1;
            for (int r = 0; r < d; ++r) {
                if (next->order[r] == j) { cur_rank = r; break; }
            }
            assert(cur_rank >= 0);
            int lo, hi;
            RankBounds(parsed, next->order, j, &lo, &hi);
            if (lo >= hi) continue;
            int q = rng.UniformInt(lo, hi - 1);
            if (q >= cur_rank) ++q;
            if (q == cur_rank) continue;
            if (q < cur_rank) {
                std::rotate(next->order.begin() + q,
                            next->order.begin() + cur_rank,
                            next->order.begin() + cur_rank + 1);
            } else {
                std::rotate(next->order.begin() + cur_rank,
                            next->order.begin() + cur_rank + 1,
                            next->order.begin() + q + 1);
            }
            delta->kind = DlsaDelta::Kind::kOrderMove;
            delta->tensor = j;
            delta->from_rank = cur_rank;
            delta->to_rank = q;
            return true;
        }
        // Change Living Duration: re-draw the free endpoint.
        TilePos lo = parsed.FreePointMin(j);
        TilePos hi = parsed.FreePointMax(j);
        if (lo >= hi) continue;
        TilePos v = static_cast<TilePos>(rng.UniformInt(lo, hi));
        if (v == next->free_point[j]) continue;
        delta->kind = DlsaDelta::Kind::kFreePoint;
        delta->tensor = j;
        delta->old_point = next->free_point[j];
        delta->new_point = v;
        next->free_point[j] = v;
        return true;
    }
    return false;
}

DlsaStageResult
RunDlsaStage(const Graph &graph, const HardwareConfig &hw,
             const ParsedSchedule &parsed, const DlsaEncoding &initial,
             Bytes buffer_budget, const SomaOptions &opts, Rng &rng)
{
    const Ops total_ops = graph.TotalOps();
    obs::SpanScope stage_span(opts.driver.trace, "dlsa.stage");
    stage_span.Arg("tensors", static_cast<std::int64_t>(
                                  parsed.NumTensors()));
    stage_span.Arg("budget_bytes",
                   static_cast<std::int64_t>(buffer_budget));
    auto mutator = std::make_shared<DlsaMutator>(parsed);

    EvalContext serial_ctx(hw, buffer_budget, total_ops);
    auto evaluate_serial = [&](const DlsaEncoding &dlsa) -> double {
        return serial_ctx.Evaluate(parsed, dlsa).Cost(opts.cost_n,
                                                      opts.cost_m);
    };

    DlsaStageResult result;
    result.dlsa = initial;
    result.cost = evaluate_serial(initial);

    // Heuristic seeds: deeper uniform prefetch leads when the buffer
    // allows (the "push weights forward" move). The SA then refines the
    // best starting point.
    for (TilePos lead : {2, 4, 8, 16, 32}) {
        for (TilePos lag : {2, 4}) {
            DlsaEncoding cand = MakeSlackDlsa(parsed, lead, lag);
            double cand_cost = evaluate_serial(cand);
            if (cand_cost < result.cost) {
                result.dlsa = std::move(cand);
                result.cost = cand_cost;
            }
        }
    }

    const int iterations = static_cast<int>(std::min<std::int64_t>(
        opts.dlsa.max_iterations,
        static_cast<std::int64_t>(opts.dlsa.beta) *
            std::max(1, parsed.NumTensors())));

    // Each chain owns an EvalContext whose committed base tracks the
    // chain's current state, so candidate evaluation resumes the
    // timeline from the earliest slot the mutation touched.
    auto make_env = [&](int /*chain*/) {
        ChainEnv<DlsaEncoding> env;
        auto ctx =
            std::make_shared<EvalContext>(hw, buffer_budget, total_ops);
        auto delta = std::make_shared<DlsaDelta>();
        env.mutate = [mutator, delta](const DlsaEncoding &cur,
                                      DlsaEncoding *next, Rng &r) {
            return (*mutator)(cur, next, r, delta.get());
        };
        env.evaluate = [&parsed, ctx, delta, n = opts.cost_n,
                        m = opts.cost_m](const DlsaEncoding &d) {
            const EvalReport &rep = ctx->EvaluateDelta(parsed, d, *delta);
            delta->kind = DlsaDelta::Kind::kNone;  // consumed
            return rep.Cost(n, m);
        };
        env.on_accept = [ctx](const DlsaEncoding &) { ctx->Commit(); };
        env.on_adopt = [&parsed, ctx](const DlsaEncoding &d, double) {
            ctx->Evaluate(parsed, d);
            ctx->Commit();
        };
        env.annotate = [ctx](obs::SpanScope &span) {
            const EvalContext::DeltaStats &ds = ctx->delta_stats();
            span.Arg("delta_evals",
                     static_cast<std::int64_t>(ds.delta_evals));
            span.Arg("full_fallbacks",
                     static_cast<std::int64_t>(ds.full_fallbacks));
            span.Arg("resume_ci",
                     static_cast<std::int64_t>(ds.last_resume_ci));
            span.Arg("resume_di",
                     static_cast<std::int64_t>(ds.last_resume_di));
        };
        return env;
    };

    result.stats = RunDriverAndAdopt<DlsaEncoding>(
        make_env, iterations, opts.driver, rng, &result.dlsa, &result.cost);
    result.report = EvaluateSchedule(graph, hw, parsed, result.dlsa,
                                     buffer_budget, total_ops);
    stage_span.Arg("iterations", static_cast<std::int64_t>(
                                     result.stats.iterations));
    stage_span.Arg("evaluated", static_cast<std::int64_t>(
                                    result.stats.evaluated));
    stage_span.Arg("best_cost", result.cost);
    return result;
}

}  // namespace soma

#include "search/lfa_stage.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "obs/trace.h"
#include "search/dlsa_heuristics.h"
#include "search/soma.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"

namespace soma {

bool
MutateOrderMoveLayer(const Graph &graph, std::vector<LayerId> *order,
                     Rng &rng)
{
    const int n = static_cast<int>(order->size());
    if (n < 2) return false;
    int p = rng.UniformInt(0, n - 1);
    LayerId id = (*order)[p];

    std::vector<int> pos(n);
    for (int i = 0; i < n; ++i) pos[(*order)[i]] = i;

    int lo = 0, hi = n - 1;
    for (const InputRef &in : graph.layer(id).inputs()) {
        if (in.producer != kNoLayer)
            lo = std::max(lo, pos[in.producer] + 1);
    }
    for (const Edge &e : graph.Consumers(id))
        hi = std::min(hi, pos[e.consumer] - 1);
    if (lo >= hi) return false;
    int q = rng.UniformInt(lo, hi - 1);
    if (q >= p) ++q;  // skip the current position
    if (q == p) return false;

    if (q < p) {
        std::rotate(order->begin() + q, order->begin() + p,
                    order->begin() + p + 1);
    } else {
        std::rotate(order->begin() + p, order->begin() + p + 1,
                    order->begin() + q + 1);
    }
    return true;
}

LfaEncoding
MakeInitialLfa(const Graph &graph, const HardwareConfig &hw, int tiling_cap)
{
    std::vector<int> tiling(graph.NumLayers());
    for (LayerId id = 0; id < graph.NumLayers(); ++id) {
        tiling[id] = HeuristicParallelTiles(graph, {id}, hw, tiling_cap);
    }
    return MakeUnfusedLfa(graph, tiling);
}

/** Uniformly pick one applicable LFA operator and apply it. */
bool
MutateLfaEncoding(const Graph &graph, const LfaEncoding &cur,
                  LfaEncoding *next, int tiling_cap, Rng &rng)
{
    *next = cur;
    const int n = graph.NumLayers();
    for (int attempt = 0; attempt < 4; ++attempt) {
        switch (rng.UniformInt(0, 5)) {
          case 0: {  // Change Computing Order
            if (MutateOrderMoveLayer(graph, &next->order, rng)) return true;
            break;
          }
          case 1: {  // Change Tiling Number (x2 or /2)
            int g = rng.UniformInt(0, next->NumFlgs() - 1);
            int t = next->tiling[g];
            int nt = rng.Flip() ? t * 2 : t / 2;
            nt = std::clamp(nt, 1, tiling_cap);
            if (nt != t) {
                next->tiling[g] = nt;
                return true;
            }
            break;
          }
          case 2: {  // Add an FLC (split an FLG, both halves inherit T)
            if (static_cast<int>(next->flc_cuts.size()) >= n - 1) break;
            int p = rng.UniformInt(1, n - 1);
            auto it = std::lower_bound(next->flc_cuts.begin(),
                                       next->flc_cuts.end(), p);
            if (it != next->flc_cuts.end() && *it == p) break;
            int g = next->FlgOfPos(p);
            next->flc_cuts.insert(it, p);
            next->tiling.insert(next->tiling.begin() + g + 1,
                                next->tiling[g]);
            return true;
          }
          case 3: {  // Delete an FLC (not a DRAM cut); merge FLGs
            std::vector<int> candidates;
            for (int cut : next->flc_cuts) {
                if (!std::binary_search(next->dram_cuts.begin(),
                                        next->dram_cuts.end(), cut)) {
                    candidates.push_back(cut);
                }
            }
            if (candidates.empty()) break;
            int cut = candidates[rng.UniformInt(
                0, static_cast<int>(candidates.size()) - 1)];
            auto it = std::lower_bound(next->flc_cuts.begin(),
                                       next->flc_cuts.end(), cut);
            int g = static_cast<int>(it - next->flc_cuts.begin());
            // Inherit the Tiling Number probabilistically by layer-count
            // ratio of the merged FLGs (Sec. V-C1).
            int b0, e0, b1, e1;
            next->FlgRange(g, &b0, &e0);
            next->FlgRange(g + 1, &b1, &e1);
            double left_frac =
                static_cast<double>(e0 - b0) / ((e0 - b0) + (e1 - b1));
            int inherited = rng.Flip(left_frac) ? next->tiling[g]
                                                : next->tiling[g + 1];
            next->flc_cuts.erase(it);
            next->tiling.erase(next->tiling.begin() + g + 1);
            next->tiling[g] = inherited;
            return true;
          }
          case 4: {  // Add a DRAM Cut (must already be an FLC)
            std::vector<int> candidates;
            for (int cut : next->flc_cuts) {
                if (!std::binary_search(next->dram_cuts.begin(),
                                        next->dram_cuts.end(), cut)) {
                    candidates.push_back(cut);
                }
            }
            if (candidates.empty()) break;
            int cut = candidates[rng.UniformInt(
                0, static_cast<int>(candidates.size()) - 1)];
            next->dram_cuts.insert(
                std::lower_bound(next->dram_cuts.begin(),
                                 next->dram_cuts.end(), cut),
                cut);
            return true;
          }
          case 5: {  // Delete a DRAM Cut
            if (next->dram_cuts.empty()) break;
            int i = rng.UniformInt(
                0, static_cast<int>(next->dram_cuts.size()) - 1);
            next->dram_cuts.erase(next->dram_cuts.begin() + i);
            return true;
          }
        }
    }
    return false;
}

SearchResult
RunLfaStage(const Graph &graph, const HardwareConfig &hw,
            const CoreArrayEvaluator &core_eval, Bytes stage_budget,
            const SomaOptions &opts, Rng &rng)
{
    const Ops total_ops = graph.TotalOps();
    obs::Tracer *const tracer = opts.driver.trace;
    obs::SpanScope stage_span(tracer, "lfa.stage");
    stage_span.Arg("budget_bytes", static_cast<std::int64_t>(stage_budget));

    // One evaluation = parse + the price under the classical
    // double-buffer DLSA (the lazy one when only that fits). The context
    // keeps parse and pricing scratch (and the incremental group memo)
    // alive across candidates; @p ctx is per-chain.
    auto eval_with = [&graph, &core_eval, n = opts.cost_n, m = opts.cost_m](
                         EvalContext &ctx, const LfaEncoding &lfa) {
        return ctx.PriceCanonical(ctx.Parse(graph, lfa, core_eval),
                                  CanonicalDlsa::kDoubleBufferElseLazy, n,
                                  m);
    };

    EvalContext serial_ctx(hw, stage_budget, total_ops);
    auto evaluate = [&](const LfaEncoding &lfa) {
        return eval_with(serial_ctx, lfa);
    };

    SearchResult result;
    {
        obs::SpanScope seed_span(tracer, "lfa.seed");
        result.lfa = MakeInitialLfa(graph, hw, kTilingCap);
        result.cost = evaluate(result.lfa);
        seed_span.Arg("initial_cost", result.cost);
        seed_span.Arg("greedy", static_cast<std::int64_t>(
                                    opts.lfa.greedy_seed ? 1 : 0));
    }

    if (opts.lfa.greedy_seed) {
        // One right-to-left sweep over the DRAM cuts: merge neighbours
        // whenever it does not hurt. Right-to-left keeps positions of
        // not-yet-visited cuts stable.
        obs::SpanScope greedy_span(tracer, "lfa.greedy_seed");
        std::vector<int> snapshot = result.lfa.dram_cuts;
        for (auto it = snapshot.rbegin(); it != snapshot.rend(); ++it) {
            int cut = *it;
            LfaEncoding cand = result.lfa;
            auto fit = std::lower_bound(cand.flc_cuts.begin(),
                                        cand.flc_cuts.end(), cut);
            if (fit == cand.flc_cuts.end() || *fit != cut) continue;
            int g = static_cast<int>(fit - cand.flc_cuts.begin());
            // Merge FLG g and g+1; the larger side donates its tiling.
            int b0, e0, b1, e1;
            cand.FlgRange(g, &b0, &e0);
            cand.FlgRange(g + 1, &b1, &e1);
            int inherited = (e0 - b0) >= (e1 - b1) ? cand.tiling[g]
                                                   : cand.tiling[g + 1];
            cand.flc_cuts.erase(fit);
            cand.tiling.erase(cand.tiling.begin() + g + 1);
            cand.tiling[g] = inherited;
            auto dit = std::lower_bound(cand.dram_cuts.begin(),
                                        cand.dram_cuts.end(), cut);
            if (dit != cand.dram_cuts.end() && *dit == cut)
                cand.dram_cuts.erase(dit);
            double cand_cost = evaluate(cand);
            if (cand_cost <= result.cost) {
                result.lfa = std::move(cand);
                result.cost = cand_cost;
            }
        }
    }

    const int iterations = std::min(opts.lfa.max_iterations,
                                    opts.lfa.beta * graph.NumLayers());

    // Anneal K chains; each owns an EvalContext of parse/eval scratch
    // (and so its own group memo) and a memo of the costs it priced.
    std::vector<std::shared_ptr<EvalContext>> contexts;
    std::vector<std::shared_ptr<ChainCostMemo>> memos;
    auto make_env = [&](int /*chain*/) {
        ChainEnv<LfaEncoding> env;
        auto ctx = contexts.emplace_back(
            std::make_shared<EvalContext>(hw, stage_budget, total_ops));
        auto memo = memos.emplace_back(std::make_shared<ChainCostMemo>());
        env.mutate = [&graph](const LfaEncoding &cur, LfaEncoding *next,
                              Rng &r) {
            return MutateLfaEncoding(graph, cur, next, kTilingCap, r);
        };
        env.evaluate = [eval_with, ctx, memo](const LfaEncoding &lfa) {
            memo->SetKey(lfa.order, lfa.flc_cuts, lfa.dram_cuts, lfa.tiling);
            return memo->Price(ctx->cross_check(),
                               [&] { return eval_with(*ctx, lfa); });
        };
        return env;
    };
    result.stats = RunDriverAndAdopt<LfaEncoding>(
        make_env, iterations, opts.driver, rng, &result.lfa, &result.cost);

    // Materialize the winning scheme once more for the caller.
    {
        obs::SpanScope final_span(tracer, "lfa.final");
        result.parsed = ParseLfa(graph, result.lfa, core_eval);
        result.dlsa = MakeDoubleBufferDlsa(result.parsed);
        result.report = EvaluateSchedule(graph, hw, result.parsed,
                                         result.dlsa, stage_budget,
                                         total_ops);
        if (!result.report.valid) {
            result.dlsa = MakeLazyDlsa(result.parsed);
            result.report = EvaluateSchedule(graph, hw, result.parsed,
                                             result.dlsa, stage_budget,
                                             total_ops);
        }
        result.stage1_dlsa = result.dlsa;
    }
    stage_span.Arg("iterations", static_cast<std::int64_t>(
                                     result.stats.iterations));
    stage_span.Arg("evaluated", static_cast<std::int64_t>(
                                    result.stats.evaluated));
    stage_span.Arg("best_cost", result.cost);
    std::int64_t memo_hits = 0;
    for (const auto &memo : memos) memo_hits += memo->hits();
    stage_span.Arg("cost_memo_hits", memo_hits);
    // The candidates the double buffer did not fit, seed and chains.
    EvalContext::CanonicalStats priced = serial_ctx.canonical_stats();
    for (const auto &ctx : contexts) {
        priced.priced_lazy += ctx->canonical_stats().priced_lazy;
        priced.priced_infeasible += ctx->canonical_stats().priced_infeasible;
    }
    stage_span.Arg("priced_lazy", priced.priced_lazy);
    stage_span.Arg("priced_infeasible", priced.priced_infeasible);
    // Incremental-parse effectiveness for the trace viewer: the serial
    // context's group-memo telemetry.
    const ParseScratch &scratch = serial_ctx.parse_scratch();
    stage_span.Arg("parse_dirty_groups",
                   static_cast<std::int64_t>(scratch.last_dirty_groups));
    stage_span.Arg("parse_clean_groups",
                   static_cast<std::int64_t>(scratch.last_clean_groups));
    return result;
}

}  // namespace soma

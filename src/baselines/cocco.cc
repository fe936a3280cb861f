#include "baselines/cocco.h"

#include <algorithm>
#include <memory>

#include "search/dlsa_heuristics.h"
#include "search/driver.h"
#include "search/lfa_stage.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"

namespace soma {

CoccoOptions
CoccoOptionsFor(SearchProfile profile, std::uint64_t seed)
{
    const ProfileBudgets &b = BudgetsFor(profile);
    CoccoOptions opts;
    opts.seed = seed;
    opts.beta = b.cocco_beta;
    opts.max_iterations = b.cocco_max_iterations;
    opts.driver.chains = b.cocco_chains;
    return opts;
}

LfaEncoding
MakeCoccoLfa(const Graph &graph, const HardwareConfig &hw,
             const std::vector<LayerId> &order,
             const std::vector<int> &dram_cuts, int tiling_cap)
{
    LfaEncoding lfa;
    lfa.order = order;
    lfa.flc_cuts = dram_cuts;
    lfa.dram_cuts = dram_cuts;
    for (int g = 0; g < lfa.NumFlgs(); ++g) {
        lfa.tiling.push_back(HeuristicParallelTiles(
            graph, lfa.FlgLayers(g), hw, tiling_cap));
    }
    return lfa;
}

namespace {

/** Cocco's explorable state: the LG partition and the order. */
struct CoccoState {
    std::vector<LayerId> order;
    std::vector<int> cuts;  ///< DRAM cuts (== FLC cuts)
};

bool
MutateCocco(const Graph &graph, const CoccoState &cur, CoccoState *next,
            Rng &rng)
{
    *next = cur;
    const int n = graph.NumLayers();
    for (int attempt = 0; attempt < 4; ++attempt) {
        switch (rng.UniformInt(0, 2)) {
          case 0:
            if (MutateOrderMoveLayer(graph, &next->order, rng)) return true;
            break;
          case 1: {  // add a cut
            if (static_cast<int>(next->cuts.size()) >= n - 1) break;
            int p = rng.UniformInt(1, n - 1);
            auto it = std::lower_bound(next->cuts.begin(), next->cuts.end(),
                                       p);
            if (it != next->cuts.end() && *it == p) break;
            next->cuts.insert(it, p);
            return true;
          }
          case 2: {  // delete a cut
            if (next->cuts.empty()) break;
            int i = rng.UniformInt(0,
                                   static_cast<int>(next->cuts.size()) - 1);
            next->cuts.erase(next->cuts.begin() + i);
            return true;
          }
        }
    }
    return false;
}

}  // namespace

SearchResult
RunCocco(const Graph &graph, const HardwareConfig &hw,
         const CoccoOptions &opts)
{
    Rng rng(opts.seed);
    const CoreArrayEvaluator core_eval(graph, hw);
    const Ops total_ops = graph.TotalOps();

    // Cocco's conservative buffer semantics: weights stay resident for
    // their whole LG (no fine-grained weight windowing).
    const ParseOptions popts{/*lg_resident_weights=*/true};

    auto eval_with = [&graph, &hw, &core_eval, popts, n = opts.cost_n,
                      m = opts.cost_m](
                         EvalContext &ctx, const CoccoState &state) {
        LfaEncoding lfa = MakeCoccoLfa(graph, hw, state.order, state.cuts,
                                       kTilingCap);
        return ctx.PriceCanonical(ctx.Parse(graph, lfa, core_eval, popts),
                                  CanonicalDlsa::kCoccoPrefetch, n, m);
    };

    EvalContext serial_ctx(hw, hw.gbuf_bytes, total_ops);
    auto evaluate = [&](const CoccoState &state) -> double {
        return eval_with(serial_ctx, state);
    };

    // Initial: unfused.
    CoccoState state;
    state.order = graph.TopoOrder();
    for (int p = 1; p < graph.NumLayers(); ++p) state.cuts.push_back(p);
    double cost = evaluate(state);

    if (opts.greedy_seed) {
        std::vector<int> snapshot = state.cuts;
        for (auto it = snapshot.rbegin(); it != snapshot.rend(); ++it) {
            CoccoState cand = state;
            auto cit = std::lower_bound(cand.cuts.begin(), cand.cuts.end(),
                                        *it);
            if (cit == cand.cuts.end() || *cit != *it) continue;
            cand.cuts.erase(cit);
            double cand_cost = evaluate(cand);
            if (cand_cost <= cost) {
                state = std::move(cand);
                cost = cand_cost;
            }
        }
    }

    const int iterations =
        std::min(opts.max_iterations, opts.beta * graph.NumLayers());

    auto make_env = [&](int /*chain*/) {
        ChainEnv<CoccoState> env;
        auto ctx = std::make_shared<EvalContext>(hw, hw.gbuf_bytes,
                                                 total_ops);
        auto memo = std::make_shared<ChainCostMemo>();
        env.mutate = [&graph](const CoccoState &cur, CoccoState *next,
                              Rng &r) {
            return MutateCocco(graph, cur, next, r);
        };
        env.evaluate = [eval_with, ctx, memo](const CoccoState &s) {
            memo->SetKey(s.order, s.cuts);
            return memo->Price(ctx->cross_check(),
                               [&] { return eval_with(*ctx, s); });
        };
        return env;
    };
    SearchResult result;
    result.stats = RunDriverAndAdopt<CoccoState>(
        make_env, iterations, opts.driver, rng, &state, &cost);
    result.cost = cost;
    result.lfa =
        MakeCoccoLfa(graph, hw, state.order, state.cuts, kTilingCap);
    result.parsed = ParseLfa(graph, result.lfa, core_eval, popts);
    result.dlsa = MakeCoccoDlsa(result.parsed);
    result.stage1_dlsa = result.dlsa;
    result.report = EvaluateSchedule(graph, hw, result.parsed, result.dlsa,
                                     hw.gbuf_bytes, total_ops);
    return result;
}

}  // namespace soma

// A1 — policy ablation: which weak-model policy wins where?
//
// The lower-bound experiments report only the portfolio minimum; this
// ablation shows the full picture: per-policy cost across models and
// target choices. It makes the paper's two structural facts visible —
// (a) NO policy escapes sqrt(n) when the target is the newest vertex,
// (b) policy choice matters enormously when the target is old (min-id and
//     degree-greedy exploit the age gradient; blind policies cannot).
#include <string>

#include "gen/cooper_frieze.hpp"
#include "gen/mori.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/table.hpp"

namespace {

using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

void ablate(ExperimentContext& ctx, const std::string& title,
            const sfs::sim::GraphFactory& factory,
            const sfs::sim::EndpointSelector& endpoints, std::size_t n,
            std::size_t reps) {
  const auto cost = sfs::sim::measure_portfolio({
      // --policies narrows the ablation to the named weak policies
      // (default: the full weak portfolio of the policy table).
      .policies = ctx.options.policies,
      .factory = factory,
      .endpoints = endpoints,
      .reps = reps,
      .seed = ctx.stream_seed(title),
      .budget = {.max_raw_requests = 40 * n},
      .threads = ctx.threads(),
  });
  sfs::sim::Table t(title, {"policy", "mean requests", "median", "p90",
                            "found frac"});
  for (const auto& pol : cost.policies) {
    t.row().cell(pol.name);
    // With --reps 1 a policy stopped by the min-path ceiling has only
    // truncated counts and no found status.
    if (pol.pruned) {
      t.cell("pruned").cell("pruned").cell("pruned").cell("-");
      continue;
    }
    t.num(pol.requests.mean, 1)
        .num(pol.median_requests, 1)
        .num(pol.p90_requests, 1)
        .num(pol.found_fraction, 2);
  }
  t.print(ctx.console());
  ctx.console() << "winner: " << cost.best_policy().name << "\n\n";
}

int run_a1(ExperimentContext& ctx) {
  const std::size_t n = ctx.n_or(ctx.options.quick ? 2048 : 8192);
  const std::size_t reps = ctx.reps_or(ctx.options.quick ? 2 : 8);
  ctx.console() << "A1: per-policy ablation across models and targets (n = "
                << n << ", " << reps << " replications).\n\n";

  const auto mori = [n](Rng& rng) {
    return sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng);
  };
  const auto merged = [n](Rng& rng) {
    return sfs::gen::merged_mori_graph(n, 3, sfs::gen::MoriParams{0.5}, rng);
  };
  const auto cf = [n](Rng& rng) {
    sfs::gen::CooperFriezeParams params;
    return sfs::gen::cooper_frieze(n, params, rng).graph;
  };

  ablate(ctx, "A1: Mori tree, target = NEWEST vertex", mori,
         sfs::sim::oldest_to_newest(), n, reps);
  ablate(ctx, "A1: Mori tree, target = ROOT (oldest)", mori,
         sfs::sim::newest_to_paper_id(1), n, reps);
  ablate(ctx, "A1: merged Mori m=3, target = NEWEST", merged,
         sfs::sim::oldest_to_newest(), n, reps);
  ablate(ctx, "A1: Cooper-Frieze, target = NEWEST", cf,
         sfs::sim::oldest_to_newest(), n, reps);

  ctx.console() << "Expected shape: for NEWEST targets every policy pays "
                   "thousands of requests (no winner escapes the bound); "
                   "for the ROOT target the age-gradient policies pay a "
                   "handful.\n";
  return 0;
}

}  // namespace

namespace sfs::bench {

sim::ExperimentSpec a1_spec() {
  return {
      .name = "a1",
      .title = "Policy ablation: per-policy cost across models and targets",
      .claim = "No policy escapes sqrt(n) for the newest target; policy "
               "choice dominates for old targets",
      .caps = sim::kCapSingleSize | sim::kCapReps | sim::kCapThreads |
              sim::kCapPolicies,
      .policy_model = search::KnowledgeModel::kWeak,
      .params =
          {
              {"--n", "size", "8192 (quick: 2048)", "graph size"},
              {"--reps", "count", "8 (quick: 2)",
               "portfolio replications per configuration"},
              {"--seed", "u64 seed", "derived from name",
               "base seed; one stream per configuration"},
              {"--threads", "count", "0 (shared pool)",
               "portfolio fan-out worker count"},
              {"--policies", "name list", "full weak portfolio",
               "weak policies to ablate (policy table names)"},
          },
      .run = run_a1,
  };
}

}  // namespace sfs::bench

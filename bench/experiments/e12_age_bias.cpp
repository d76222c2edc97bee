// E12 — Why "vertex n"? The age/degree correlation of evolving graphs
// makes OLD vertices easy to find (they are hubs, reachable by climbing
// the degree/age gradient) while the NEWEST vertex hides among ~sqrt(n)
// statistically equivalent leaves. Quantifies the asymmetry the theorems
// build on: best weak-model cost by target age, Móri and Cooper–Frieze.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "gen/cooper_frieze.hpp"
#include "gen/mori.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/table.hpp"

namespace {

using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

void report(ExperimentContext& ctx, const std::string& model,
            const sfs::sim::GraphFactory& factory, std::size_t n,
            std::size_t reps) {
  sfs::sim::Table t("E12: cost by target age, " + model,
                    {"target (paper id)", "best policy", "best mean cost",
                     "degree-greedy cost", "bfs cost"});
  // For small n the fractions of n round down to 0 or to each other: keep
  // every id in [1, n] and report each one once.
  std::vector<std::size_t> targets;
  for (const std::size_t id : {std::size_t{1}, n / 4, n / 2, 3 * n / 4, n}) {
    const std::size_t target = std::max<std::size_t>(id, 1);
    if (targets.empty() || targets.back() != target) targets.push_back(target);
  }
  for (const std::size_t target : targets) {
    // Fixed start: paper vertex 2 (old but not a target row), so rows are
    // comparable.
    const sfs::sim::EndpointSelector from_two =
        [target](const sfs::graph::Graph&, Rng&) {
          return std::pair<sfs::graph::VertexId, sfs::graph::VertexId>{
              1, static_cast<sfs::graph::VertexId>(target - 1)};
        };
    const auto cost = sfs::sim::measure_portfolio({
        .factory = factory,
        .endpoints = from_two,
        .reps = reps,
        .seed = ctx.stream_seed(model + " target=" + std::to_string(target)),
        .budget = {.max_raw_requests = 40 * n},
        .threads = ctx.threads(),
    });
    // With --reps 1 a policy stopped by the min-path ceiling has only a
    // truncated count.
    const auto mean_cost = [&](const std::string& name) {
      for (const auto& pol : cost.policies) {
        if (pol.name != name) continue;
        return pol.pruned ? std::string("pruned")
                          : sfs::sim::format_double(pol.requests.mean, 1);
      }
      return sfs::sim::format_double(0.0, 1);
    };
    t.row()
        .integer(target)
        .cell(cost.best_policy().name)
        .num(cost.best_policy().requests.mean, 1)
        .cell(mean_cost("degree-greedy"))
        .cell(mean_cost("bfs"));
  }
  t.print(ctx.console());
  ctx.console() << '\n';
}

int run_e12(ExperimentContext& ctx) {
  ctx.console() << "E12: searching OLD vertices is easy, searching the "
                   "NEWEST is Omega(sqrt(n)) — the asymmetry behind "
                   "targeting vertex n. Start vertex: paper id 2, the "
                   "second-oldest vertex.\n\n";
  const std::size_t n = ctx.n_or(ctx.options.quick ? 2048 : 8192);
  const std::size_t reps = ctx.reps_or(ctx.options.quick ? 2 : 8);
  report(ctx, "Mori p=0.5",
         [n](Rng& rng) {
           return sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng);
         },
         n, reps);
  report(ctx, "Cooper-Frieze balanced",
         [n](Rng& rng) {
           sfs::gen::CooperFriezeParams params;
           return sfs::gen::cooper_frieze(n, params, rng).graph;
         },
         n, reps);
  return 0;
}

}  // namespace

namespace sfs::bench {

sim::ExperimentSpec e12_spec() {
  return {
      .name = "e12",
      .title = "Age bias: old vertices are easy, the newest is sqrt(n)-hard",
      .claim = "The age/degree gradient makes hubs findable while the newest "
               "vertex hides among ~sqrt(n) equivalent leaves",
      .caps = sim::kCapSingleSize | sim::kCapReps | sim::kCapThreads,
      .params =
          {
              {"--n", "size", "8192 (quick: 2048)", "graph size"},
              {"--reps", "count", "8 (quick: 2)",
               "portfolio replications per target row"},
              {"--seed", "u64 seed", "derived from name",
               "base seed; one stream per (model, target)"},
              {"--threads", "count", "0 (shared pool)",
               "portfolio fan-out worker count"},
          },
      .run = run_e12,
  };
}

}  // namespace sfs::bench

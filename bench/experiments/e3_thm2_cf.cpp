// E3 — Theorem 2: in every Cooper–Frieze model with 0 < alpha < 1, any
// weak-model algorithm needs expected Omega(n^{1/2}) requests to find the
// newest vertex.
//
// Sweep of n for several (alpha, beta, gamma, delta, p, q) presets; fitted
// exponent of the portfolio-best weak cost. --quick shrinks the grid.
#include <string>
#include <vector>

#include "core/theory.hpp"
#include "gen/cooper_frieze.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"
#include "sim/sweep.hpp"

namespace {

using sfs::gen::CooperFriezeParams;
using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

struct Preset {
  std::string name;
  CooperFriezeParams params;
};

std::vector<Preset> presets() {
  std::vector<Preset> out;
  {
    CooperFriezeParams p;
    p.alpha = 0.5;
    out.push_back({"balanced (alpha=0.5, unit edges)", p});
  }
  {
    CooperFriezeParams p;
    p.alpha = 0.25;
    out.push_back({"old-heavy (alpha=0.25)", p});
  }
  {
    CooperFriezeParams p;
    p.alpha = 0.75;
    out.push_back({"new-heavy (alpha=0.75)", p});
  }
  {
    CooperFriezeParams p;
    p.alpha = 0.5;
    p.beta = 0.2;
    p.gamma = 0.2;
    p.delta = 0.2;
    out.push_back({"mostly preferential (beta=gamma=delta=0.2)", p});
  }
  {
    CooperFriezeParams p;
    p.alpha = 0.5;
    p.q = {0.5, 0.3, 0.2};  // NEW emits 1-3 edges
    p.p = {0.7, 0.3};       // OLD emits 1-2 edges
    out.push_back({"multi-edge (E[q]=1.7, E[p]=1.3)", p});
  }
  return out;
}

int run_e3(ExperimentContext& ctx) {
  ctx.console() << "Theorem 2: Omega(sqrt(n)) weak-model requests in all "
                   "Cooper-Frieze models with 0 < alpha < 1.\n\n";
  const auto sizes =
      ctx.sizes_or(ctx.options.quick ? std::vector<std::size_t>{512, 1024,
                                                                2048}
                                     : std::vector<std::size_t>{1024, 2048,
                                                                4096, 8192});
  const auto reps = ctx.reps_or(ctx.options.quick ? 2 : 5);

  for (const auto& preset : presets()) {
    const auto series = sfs::sim::measure_scaling(
        sizes, reps, ctx.stream_seed(preset.name),
        [&](std::size_t n, std::uint64_t seed) {
          const auto cost = sfs::sim::measure_portfolio({
              .factory =
                  [&, n](Rng& rng) {
                    return sfs::gen::cooper_frieze(n, preset.params, rng)
                        .graph;
                  },
              .endpoints = sfs::sim::oldest_to_newest(),
              .seed = seed,
              .budget = {.max_raw_requests = 40 * n},
          });
          return cost.best_policy().requests.mean;
        },
        {.threads = ctx.threads()});
    sfs::sim::print_scaling(
        "E3: weak-model requests, Cooper-Frieze " + preset.name, series,
        "best requests", sfs::core::theory::weak_lower_bound_exponent(),
        "Omega exponent", *ctx.emitter);
  }
  return 0;
}

const sfs::sim::ExperimentRegistrar reg_e3({
    .name = "e3",
    .title = "Theorem 2: Omega(sqrt(n)) across Cooper-Frieze presets",
    .claim = "Thm 2: the weak lower bound holds for every Cooper-Frieze "
             "mixing 0 < alpha < 1",
    .caps = sfs::sim::kCapQuick | sfs::sim::kCapSizes | sfs::sim::kCapReps |
            sfs::sim::kCapSeed | sfs::sim::kCapThreads,
    .params =
        {
            {"--sizes", "size list", "1024,2048,4096,8192 (quick: 512..2048)",
             "n sweep per preset"},
            {"--reps", "count", "5 (quick: 2)",
             "replications per sweep point"},
            {"--seed", "u64 seed", "derived from name",
             "base seed; one stream per preset"},
            {"--threads", "count", "0 (shared pool)",
             "replication fan-out worker count"},
        },
    .run = run_e3,
});

}  // namespace

// E1 — Theorem 1, weak model: every weak-model search algorithm needs an
// expected Omega(n^{1/2}) requests to find vertex n in the merged Móri
// graph G^{(m)}, for all m >= 1 and 0 < p <= 1.
//
// Default mode: per-(p, m) sweep of n with the full weak portfolio; reports
// each policy's mean cost at the largest n, the portfolio-best cost per n,
// and the fitted scaling exponent of the best cost (theory: >= 0.5).
//
// Grid modes (--large, or --quick for the small smoke grid through the
// same code path): geometric grid to n = 2,097,152 (>= 2e6) at p=0.5, m=1
// with a bootstrap CI on the exponent, scratch-reusing generation on the
// shared pool, and optional --checkpoint stream/resume.
#include <functional>
#include <string>
#include <vector>

#include "core/theory.hpp"
#include "gen/mori.hpp"
#include "search/policy.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"
#include "sim/sweep.hpp"

namespace {

using sfs::graph::Graph;
using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

void run_config(ExperimentContext& ctx, double p, std::size_t m,
                const std::vector<std::size_t>& sizes, std::size_t reps) {
  const std::string tag =
      "p=" + sfs::sim::format_double(p, 2) + " m=" + std::to_string(m);

  auto portfolio_best = [&](std::size_t n, std::uint64_t seed) {
    return sfs::sim::measure_portfolio({
        .factory =
            [n, m, p](Rng& rng) {
              return sfs::gen::merged_mori_graph(n, m,
                                                 sfs::gen::MoriParams{p}, rng);
            },
        .endpoints = sfs::sim::oldest_to_newest(),
        .seed = seed,
        .budget = {.max_raw_requests = 40 * n},
    });
  };

  // Scaling of the portfolio-best cost.
  const auto series = sfs::sim::measure_scaling(
      sizes, reps, ctx.stream_seed("sweep " + tag),
      [&](std::size_t n, std::uint64_t seed) {
        return portfolio_best(n, seed).best_policy().requests.mean;
      },
      {.threads = ctx.threads()});
  sfs::sim::print_scaling(
      "E1: weak-model requests to find vertex n, Mori " + tag, series,
      "best requests", sfs::core::theory::weak_lower_bound_exponent(),
      "Omega exponent", *ctx.emitter);

  // Per-policy breakdown at the largest size.
  const auto big = sfs::sim::measure_portfolio({
      .factory =
          [&](Rng& rng) {
            return sfs::gen::merged_mori_graph(sizes.back(), m,
                                               sfs::gen::MoriParams{p}, rng);
          },
      .endpoints = sfs::sim::oldest_to_newest(),
      .reps = reps,
      .seed = ctx.stream_seed("detail " + tag),
      .budget = {.max_raw_requests = 40 * sizes.back()},
      .threads = ctx.threads(),
  });
  sfs::sim::Table t("E1 detail: per-policy cost at n=" +
                        std::to_string(sizes.back()) + " (" + tag + ")",
                    {"policy", "mean requests", "stderr", "found frac"});
  for (const auto& pol : big.policies) {
    t.row().cell(pol.name);
    // With --reps 1 a policy stopped by the min-path ceiling has only
    // truncated counts and no found status.
    if (pol.pruned) {
      t.cell("pruned").cell("pruned").cell("-");
      continue;
    }
    t.num(pol.requests.mean, 1)
        .num(pol.requests.stderr_mean, 1)
        .num(pol.found_fraction, 2);
  }
  t.print(ctx.console());
  ctx.console() << '\n';
}

// Grid mode: the "push the Theorem 1 sweeps past n = 10^6" study. One
// (p, m) configuration, geometric grid (small smoke grid under --quick),
// bootstrap CI on the fitted exponent, per-worker generator scratch, and
// optional checkpoint/resume for multi-hour grids.
int run_grid(ExperimentContext& ctx) {
  const double p = 0.5;
  const std::size_t m = 1;
  auto plan = sfs::sim::plan_large_run(
      ctx.options.quick, ctx.options.checkpoint_path, ctx.threads());
  plan.sizes = ctx.sizes_or(std::move(plan.sizes));
  plan.reps = ctx.reps_or(plan.reps);

  sfs::sim::WallTimer timer;
  const std::function<double(std::size_t, std::uint64_t,
                             sfs::gen::GenScratch&)>
      measure = [&](std::size_t n, std::uint64_t seed,
                    sfs::gen::GenScratch& scratch) {
        const auto cost = sfs::sim::measure_portfolio({
            .scratch_factory =
                [&scratch, n, m, p](Rng& rng, sfs::gen::GenScratch&,
                                    Graph& out) {
                  // The inner portfolio runs sequentially inside this
                  // cell, so reusing the sweep-level per-worker scratch
                  // (instead of the portfolio's own, fresh per cell)
                  // keeps generator buffers warm across the whole grid.
                  sfs::gen::merged_mori_graph(n, m, sfs::gen::MoriParams{p},
                                              rng, scratch, out);
                },
            .endpoints = sfs::sim::oldest_to_newest(),
            .seed = seed,
            .budget = {.max_raw_requests = 40 * n},
        });
        return cost.best_policy().requests.mean;
      };
  const auto series = sfs::sim::measure_scaling(plan.sizes, plan.reps,
                                                ctx.base_seed(), measure,
                                                plan.options);
  return sfs::sim::report_large_run(
      "E1 large: weak-model requests to find vertex n, Mori p=" +
          sfs::sim::format_double(p, 2) + " m=" + std::to_string(m) +
          (ctx.options.quick ? " (quick)" : ""),
      plan, series, "best requests",
      sfs::core::theory::weak_lower_bound_exponent(), "Omega exponent",
      timer.seconds(), *ctx.emitter);
}

int run_e1(ExperimentContext& ctx) {
  const std::size_t portfolio_size =
      sfs::search::resolve_policies(sfs::search::KnowledgeModel::kWeak, {})
          .size();
  ctx.console()
      << "Theorem 1 (weak model): expected requests = Omega(sqrt(n)) "
         "for ALL weak-model algorithms.\n"
         "Empirical stand-in for 'all algorithms': min over a "
      << portfolio_size << "-policy portfolio.\n\n";
  if (ctx.options.large || ctx.options.quick) return run_grid(ctx);
  const auto sizes = ctx.sizes_or({1024, 2048, 4096, 8192, 16384});
  const auto reps = ctx.reps_or(5);
  for (const double p : {0.25, 0.5, 0.75, 1.0}) {
    run_config(ctx, p, 1, sizes, reps);
  }
  run_config(ctx, 0.5, 2, sizes, reps);
  run_config(ctx, 0.5, 4, sizes, reps);
  return 0;
}

const sfs::sim::ExperimentRegistrar reg_e1({
    .name = "e1",
    .title = "Theorem 1 (weak): Omega(sqrt(n)) requests to find vertex n",
    .claim = "Thm 1 weak half: every weak-model algorithm pays "
             "Omega(n^{1/2}) expected requests on merged Mori graphs",
    // Pinned (not name-derived): keeps the --large/--quick grid bit-
    // compatible with pre-registry bench_e1 outputs and with on-disk
    // checkpoints, whose meta row records this seed.
    .default_seed = 0x1A26E1,
    .caps = sfs::sim::kCapQuick | sfs::sim::kCapLarge |
            sfs::sim::kCapCheckpoint | sfs::sim::kCapSizes |
            sfs::sim::kCapReps | sfs::sim::kCapSeed | sfs::sim::kCapThreads,
    .params =
        {
            {"--sizes", "size list", "1024..16384 (grid modes: geometric)",
             "n sweep of the portfolio-best cost"},
            {"--reps", "count", "5 (grid modes: 3, quick 2)",
             "replications per sweep point"},
            {"--seed", "u64 seed", "0x1A26E1 (pinned)",
             "base seed; sweep/detail streams derive from it"},
            {"--threads", "count", "0 (shared pool)",
             "replication fan-out worker count"},
        },
    .run = run_e1,
});

}  // namespace

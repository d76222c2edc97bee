// E2 — Theorem 1, strong model: for Móri p < 1/2, every strong-model
// algorithm needs Omega(n^{1/2 - p - eps}) expected requests to find vertex
// n; the bound degrades with p because the maximum degree Theta(t^p) caps
// how much a single strong request can reveal.
//
// Default mode: per-p sweep of n with the strong portfolio; fitted exponent
// of the portfolio-best cost against the theory floor 1/2 - p.
//
// Grid modes (--large / --quick): geometric grid to n = 2,097,152 at
// p=0.25 with a bootstrap CI on the exponent, scratch-reusing generation
// on the shared pool, optional --checkpoint stream/resume.
#include <functional>
#include <string>
#include <vector>

#include "core/theory.hpp"
#include "gen/mori.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"
#include "sim/sweep.hpp"

namespace {

using sfs::graph::Graph;
using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

void run_p(ExperimentContext& ctx, double p,
           const std::vector<std::size_t>& sizes, std::size_t reps) {
  const std::string tag = "p=" + sfs::sim::format_double(p, 2);
  const auto series = sfs::sim::measure_scaling(
      sizes, reps, ctx.stream_seed("sweep " + tag),
      [&](std::size_t n, std::uint64_t seed) {
        const auto cost = sfs::sim::measure_portfolio({
            .model = sfs::search::KnowledgeModel::kStrong,
            .factory =
                [n, p](Rng& rng) {
                  return sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng);
                },
            .endpoints = sfs::sim::oldest_to_newest(),
            .seed = seed,
        });
        return cost.best_policy().requests.mean;
      },
      {.threads = ctx.threads()});
  sfs::sim::print_scaling(
      "E2: strong-model requests to find vertex n, Mori " + tag, series,
      "best requests", sfs::core::theory::strong_lower_bound_exponent(p),
      "Omega exponent 1/2-p", *ctx.emitter);

  const auto big = sfs::sim::measure_portfolio({
      .model = sfs::search::KnowledgeModel::kStrong,
      .factory =
          [&](Rng& rng) {
            return sfs::gen::mori_tree(sizes.back(), sfs::gen::MoriParams{p},
                                       rng);
          },
      .endpoints = sfs::sim::oldest_to_newest(),
      .reps = reps,
      .seed = ctx.stream_seed("detail " + tag),
      .threads = ctx.threads(),
  });
  sfs::sim::Table t("E2 detail: per-policy cost at n=" +
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

// Grid mode ("push the Theorem 1 sweeps past n = 10^6"): one p in the
// non-trivial regime p < 1/2, geometric grid (smoke grid under --quick),
// bootstrap CI on the exponent, per-worker generator scratch, optional
// checkpoint/resume.
int run_grid(ExperimentContext& ctx) {
  const double p = 0.25;
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
            .model = sfs::search::KnowledgeModel::kStrong,
            .scratch_factory =
                [&scratch, n, p](Rng& rng, sfs::gen::GenScratch&,
                                 Graph& out) {
                  // Sequential inner portfolio: reuse the sweep-level
                  // per-worker scratch across the whole grid.
                  sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng,
                                      scratch, out);
                },
            .endpoints = sfs::sim::oldest_to_newest(),
            .seed = seed,
        });
        return cost.best_policy().requests.mean;
      };
  const auto series = sfs::sim::measure_scaling(plan.sizes, plan.reps,
                                                ctx.base_seed(), measure,
                                                plan.options);
  return sfs::sim::report_large_run(
      "E2 large: strong-model requests to find vertex n, Mori p=" +
          sfs::sim::format_double(p, 2) +
          (ctx.options.quick ? " (quick)" : ""),
      plan, series, "best requests",
      sfs::core::theory::strong_lower_bound_exponent(p),
      "Omega exponent 1/2-p", timer.seconds(), *ctx.emitter);
}

int run_e2(ExperimentContext& ctx) {
  ctx.console() << "Theorem 1 (strong model): expected requests = "
                   "Omega(n^{1/2-p-eps}) for p < 1/2.\n"
                   "Note the weakening as p grows: one strong request on a "
                   "hub of degree ~t^p reveals t^p vertices at once.\n\n";
  if (ctx.options.large || ctx.options.quick) return run_grid(ctx);
  const auto sizes = ctx.sizes_or({2048, 4096, 8192, 16384, 32768});
  const auto reps = ctx.reps_or(5);
  for (const double p : {0.1, 0.25, 0.4}) run_p(ctx, p, sizes, reps);
  // Control: at p >= 1/2 the bound is trivial (exponent 0); the measured
  // cost may still grow, but the theorem no longer promises anything.
  run_p(ctx, 0.75, sizes, reps);
  return 0;
}

const sfs::sim::ExperimentRegistrar reg_e2({
    .name = "e2",
    .title = "Theorem 1 (strong): Omega(n^{1/2-p}) requests for p < 1/2",
    .claim = "Thm 1 strong half: strong-model cost floor weakens with the "
             "Mori hub exponent p",
    // Pinned for bit-compatibility with pre-registry bench_e2 grid
    // outputs and checkpoints (see e1).
    .default_seed = 0x1A26E2,
    .caps = sfs::sim::kCapQuick | sfs::sim::kCapLarge |
            sfs::sim::kCapCheckpoint | sfs::sim::kCapSizes |
            sfs::sim::kCapReps | sfs::sim::kCapSeed | sfs::sim::kCapThreads,
    .params =
        {
            {"--sizes", "size list", "2048..32768 (grid modes: geometric)",
             "n sweep of the portfolio-best cost"},
            {"--reps", "count", "5 (grid modes: 3, quick 2)",
             "replications per sweep point"},
            {"--seed", "u64 seed", "0x1A26E2 (pinned)",
             "base seed; sweep/detail streams derive from it"},
            {"--threads", "count", "0 (shared pool)",
             "replication fan-out worker count"},
        },
    .run = run_e2,
});

}  // namespace

// E10 — The proof machinery end-to-end (Lemmas 1+2+3): the window
// [[n, n + sqrt(n)]] of ~sqrt(n) vertices is equivalent conditional on
// E_{a,b}, so expected search cost >= |V| * P(E) / 2. Computes the
// estimated bound, the closed-form floor |V| e^{-(1-p)} / 2, and the
// measured best-portfolio weak cost — the measurement must dominate the
// bound.
//
// Also validates Lemma 2 empirically: per-position conditional feature
// means across the window agree (exchangeability). --quick shrinks the
// Monte-Carlo budgets.
#include <string>
#include <vector>

#include "core/lower_bound.hpp"
#include "core/theory.hpp"
#include "gen/mori.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/table.hpp"

namespace {

using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

int run_e10(ExperimentContext& ctx) {
  ctx.console() << "E10: Lemma 1 bound |V| P(E)/2 vs measured best "
                   "weak-model cost (Mori, target = vertex n).\n\n";
  const double p = 0.5;
  const bool quick = ctx.options.quick;
  const auto sizes = ctx.sizes_or(
      quick ? std::vector<std::size_t>{1024, 4096}
            : std::vector<std::size_t>{1024, 4096, 16384});
  const std::size_t bound_reps = quick ? 500 : 3000;
  const std::size_t cost_reps = ctx.reps_or(quick ? 2 : 8);
  sfs::sim::Table t("E10: bound vs measurement, Mori p=0.5",
                    {"n", "|V|", "P(E) est", "bound |V|P/2",
                     "theory floor", "measured best", "measured/bound"});
  for (const std::size_t n : sizes) {
    const auto bound = sfs::core::mori_lower_bound(
        p, n, bound_reps, ctx.stream_seed("bound n=" + std::to_string(n)));
    const auto cost = sfs::sim::measure_portfolio({
        .factory =
            [n, p](Rng& rng) {
              return sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng);
            },
        .endpoints = sfs::sim::oldest_to_newest(),
        .reps = cost_reps,
        .seed = ctx.stream_seed("cost n=" + std::to_string(n)),
        .budget = {.max_raw_requests = 40 * n},
        .threads = ctx.threads(),
    });
    const double measured = cost.best_policy().requests.mean;
    t.row()
        .integer(n)
        .integer(bound.window_size)
        .num(bound.event.probability, 4)
        .num(bound.bound, 1)
        .num(bound.theory_floor, 1)
        .num(measured, 1)
        .num(measured / bound.bound, 2);
  }
  t.print(ctx.console());

  ctx.console() << "\nLemma 2 exchangeability check (conditional on "
                   "E_{a,b}, window positions are interchangeable):\n";
  const std::size_t a = 128;
  const std::size_t b = sfs::core::theory::lemma3_window_end(a);
  // Signature: (p, a, b, final time t, replications, seed).
  const auto st = sfs::core::window_feature_stats(
      p, a, b, 400, quick ? 600 : 6000, ctx.stream_seed("window"));
  sfs::sim::Table w("E10: per-position conditional means, window (" +
                        std::to_string(a) + ", " + std::to_string(b) + "]",
                    {"paper vertex", "mean final indegree", "P(leaf)"});
  for (std::size_t i = 0; i < st.mean_final_indegree.size(); ++i) {
    w.row()
        .integer(a + 1 + i)
        .num(st.mean_final_indegree[i], 3)
        .num(st.leaf_probability[i], 3);
  }
  w.print(ctx.console());
  ctx.console() << "accepted " << st.accepted << "/" << st.attempted
                << " trees (acceptance ~ P(E)); columns should be flat.\n";

  ctx.console() << "\nCooper-Frieze analogue (untouched-window event):\n";
  sfs::gen::CooperFriezeParams params;
  sfs::sim::Table c("E10: CF window event",
                    {"n", "|V|", "P(E) est", "bound"});
  for (const std::size_t n : std::vector<std::size_t>{1024, 4096}) {
    const auto est = sfs::core::cooper_frieze_lower_bound(
        params, n, quick ? 400 : 2000,
        ctx.stream_seed("cf n=" + std::to_string(n)));
    c.row()
        .integer(n)
        .integer(est.window_size)
        .num(est.event.probability, 4)
        .num(est.bound, 2);
  }
  c.print(ctx.console());
  return 0;
}

}  // namespace

namespace sfs::bench {

sim::ExperimentSpec e10_spec() {
  return {
      .name = "e10",
      .title = "Lemmas 1+2+3 end-to-end: bound vs measured cost",
      .claim = "The equivalent-window machinery: measured best weak cost "
               "dominates |V| P(E)/2, window positions exchangeable",
      .caps = sim::kCapSizes | sim::kCapReps | sim::kCapThreads,
      .params =
          {
              {"--sizes", "size list", "1024,4096,16384 (quick: 1024,4096)",
               "target sizes n for the bound-vs-cost table"},
              {"--reps", "count", "8 (quick: 2)",
               "portfolio replications per n"},
              {"--seed", "u64 seed", "derived from name",
               "base seed; bound/cost/window streams derive from it"},
              {"--threads", "count", "0 (shared pool)",
               "portfolio fan-out worker count"},
          },
      .run = run_e10,
  };
}

}  // namespace sfs::bench

// E4 — Lemma 3: with b = a + floor(sqrt(a-1)), the probability that every
// vertex in the window (a, b] attaches below a satisfies
// P(E_{a,b}) >= e^{-(1-p)}.
//
// Monte-Carlo P(E_{a,b}) across p and a, against the bound. --quick cuts
// the replication count.
#include <string>

#include "core/equivalence.hpp"
#include "core/theory.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"

namespace {

using sfs::sim::ExperimentContext;

int run_e4(ExperimentContext& ctx) {
  ctx.console() << "Lemma 3: P(E_{a,b}) >= e^{-(1-p)} for b = a + "
                   "floor(sqrt(a-1)).\n\n";
  const std::size_t reps = ctx.reps_or(ctx.options.quick ? 400 : 4000);
  for (const double p : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    sfs::sim::Table t(
        "E4: P(E_{a,b}) for Mori p=" + sfs::sim::format_double(p, 2),
        {"a", "b", "window", "P(E) est", "stderr", "bound e^{-(1-p)}",
         "est >= bound?"});
    const double bound = sfs::core::theory::lemma3_bound(p);
    for (const std::size_t a : {64u, 256u, 1024u, 4096u}) {
      const std::size_t b = sfs::core::theory::lemma3_window_end(a);
      const auto est = sfs::core::estimate_event_probability(
          p, a, b, reps,
          ctx.stream_seed("p=" + sfs::sim::format_double(p, 2) +
                          " a=" + std::to_string(a)));
      t.row()
          .integer(a)
          .integer(b)
          .integer(b - a)
          .num(est.probability, 4)
          .num(est.stderr_est, 4)
          .num(bound, 4)
          .cell(est.probability + 3 * est.stderr_est >= bound ? "yes"
                                                              : "NO");
    }
    t.print(ctx.console());
    ctx.console() << '\n';
  }
  return 0;
}

}  // namespace

namespace sfs::bench {

sim::ExperimentSpec e4_spec() {
  return {
      .name = "e4",
      .title = "Lemma 3: window-attachment probability vs e^{-(1-p)}",
      .claim = "Lemma 3: P(E_{a,b}) >= e^{-(1-p)} for the sqrt-width window",
      .caps = sim::kCapReps,
      .params =
          {
              {"--reps", "count", "4000 (quick: 400)",
               "Monte-Carlo replications per (p, a) cell"},
              {"--seed", "u64 seed", "derived from name",
               "base seed; one stream per (p, a) cell"},
          },
      .run = run_e4,
  };
}

}  // namespace sfs::bench

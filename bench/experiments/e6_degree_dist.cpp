// E6 — Scale-freeness of the models (the paper's premise): the Móri tree
// has a power-law degree distribution with exponent 1 + 1/p, and
// Cooper–Frieze graphs are power-law for all mixing parameters; BA is the
// classic exponent-3 reference.
//
// MLE tail fits and a log-binned CCDF summary at n = 1e5 (--n overrides,
// --quick drops to n = 2e4).
#include <string>

#include "core/theory.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/cooper_frieze.hpp"
#include "gen/mori.hpp"
#include "graph/degree.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"
#include "stats/powerlaw.hpp"

namespace {

using sfs::graph::Graph;
using sfs::sim::ExperimentContext;

void fit_row(sfs::sim::Table& t, const std::string& model, const Graph& g,
             sfs::graph::DegreeKind kind, double predicted) {
  const auto degrees = sfs::graph::degree_sequence(g, kind);
  std::vector<std::size_t> positive;
  for (const auto d : degrees) {
    if (d >= 1) positive.push_back(d);
  }
  const auto auto_fit = sfs::stats::fit_power_law_auto(positive);
  const auto deep = sfs::stats::fit_power_law_tail(positive, 10);
  t.row()
      .cell(model)
      .num(predicted, 3)
      .num(auto_fit.alpha, 3)
      .integer(auto_fit.xmin)
      .num(auto_fit.ks_distance, 4)
      .num(deep.alpha, 3)
      .integer(sfs::graph::max_degree(g, kind));
}

int run_e6(ExperimentContext& ctx) {
  const std::size_t n = ctx.n_or(ctx.options.quick ? 20000 : 100000);
  ctx.console() << "E6: power-law degree distributions (MLE tail fits, n = "
                << n
                << ").\nFinite-size note: fitted exponents approach "
                   "the asymptotic value from below.\n\n";
  sfs::sim::Table t("E6: degree-distribution exponents",
                    {"model", "theory alpha", "alpha (auto xmin)", "xmin",
                     "KS", "alpha (xmin=10)", "max deg"});

  for (const double p : {1.0 / 3.0, 0.5, 2.0 / 3.0}) {
    const std::string tag = "mori p=" + sfs::sim::format_double(p, 2);
    sfs::rng::Rng rng(ctx.stream_seed(tag));
    const Graph g = sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng);
    fit_row(t, "Mori p=" + sfs::sim::format_double(p, 2), g,
            sfs::graph::DegreeKind::kIn,
            sfs::core::theory::mori_degree_distribution_exponent(p));
  }
  {
    sfs::rng::Rng rng(ctx.stream_seed("cf balanced"));
    sfs::gen::CooperFriezeParams params;  // balanced defaults
    const Graph g = sfs::gen::cooper_frieze(n, params, rng).graph;
    fit_row(t, "Cooper-Frieze balanced", g, sfs::graph::DegreeKind::kIn,
            0.0);  // no closed form printed; power law expected
  }
  {
    sfs::rng::Rng rng(ctx.stream_seed("cf pref-heavy"));
    sfs::gen::CooperFriezeParams params;
    params.beta = 0.2;
    params.gamma = 0.2;
    const Graph g = sfs::gen::cooper_frieze(n, params, rng).graph;
    fit_row(t, "Cooper-Frieze pref-heavy", g, sfs::graph::DegreeKind::kIn,
            0.0);
  }
  {
    sfs::rng::Rng rng(ctx.stream_seed("ba m=2"));
    const Graph g = sfs::gen::barabasi_albert(
        n, sfs::gen::BarabasiAlbertParams{2}, rng);
    fit_row(t, "Barabasi-Albert m=2", g,
            sfs::graph::DegreeKind::kUndirected, 3.0);
  }
  t.print(ctx.console());

  // Log-binned CCDF of one Mori tree, the figure-style artifact.
  ctx.console() << "\nLog-binned indegree CCDF, Mori p=0.5, n=" << n
                << ":\n";
  sfs::rng::Rng rng(ctx.stream_seed("ccdf"));
  const Graph g = sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng);
  sfs::sim::Table c("E6 figure: CCDF by degree", {"degree", "P(D >= d)"});
  const auto ccdf = sfs::graph::degree_ccdf(g, sfs::graph::DegreeKind::kIn);
  std::size_t next = 1;
  for (const auto& [d, prob] : ccdf) {
    if (d >= next) {
      c.row().integer(d).num(prob, 6);
      next = d * 2;
    }
  }
  c.print(ctx.console());
  return 0;
}

}  // namespace

namespace sfs::bench {

sim::ExperimentSpec e6_spec() {
  return {
      .name = "e6",
      .title = "Power-law degree distributions of the evolving models",
      .claim = "Premise: Mori exponent 1 + 1/p, Cooper-Frieze power-law for "
               "all mixings, BA exponent 3",
      .caps = sim::kCapSingleSize,
      .params =
          {
              {"--n", "size", "100000 (quick: 20000)",
               "graph size for the tail fits"},
              {"--seed", "u64 seed", "derived from name",
               "base seed; one stream per model row"},
          },
      .run = run_e6,
  };
}

}  // namespace sfs::bench

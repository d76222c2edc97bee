// Cross-module integration tests: miniature versions of the paper's
// experiments wired end-to-end (generator -> search -> stats -> theory).
#include <gtest/gtest.h>

#include <cmath>

#include "core/lower_bound.hpp"
#include "core/theory.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/cooper_frieze.hpp"
#include "gen/mori.hpp"
#include "graph/algorithms.hpp"
#include "graph/degree.hpp"
#include "graph/io.hpp"
#include "search/weak_algorithms.hpp"
#include "sim/scaling.hpp"
#include "sim/sweep.hpp"
#include "stats/powerlaw.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::VertexId;
using sfs::rng::Rng;

// V2 plan API: the whole measurement in one value (docs/SEARCH.md).
sfs::sim::RunPlan weak_plan(sfs::sim::GraphFactory factory,
                            sfs::sim::EndpointSelector endpoints,
                            std::size_t reps, std::uint64_t seed,
                            std::size_t max_raw) {
  sfs::sim::RunPlan plan;
  plan.factory = std::move(factory);
  plan.endpoints = std::move(endpoints);
  plan.reps = reps;
  plan.seed = seed;
  plan.budget.max_raw_requests = max_raw;
  return plan;
}

// E1 in miniature: weak-model cost of finding the newest Móri vertex grows
// polynomially (log-log slope clearly positive, consistent with 1/2).
TEST(Integration, WeakSearchCostGrowsPolynomially) {
  const auto series = sfs::sim::measure_scaling(
      {256, 512, 1024, 2048}, 6, 101,
      [](std::size_t n, std::uint64_t seed) {
        const auto cost = sfs::sim::measure_portfolio(weak_plan(
            [n](Rng& rng) {
              return sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng);
            },
            sfs::sim::oldest_to_newest(), 1, seed, 5000000));
        return cost.best_policy().requests.mean;
      });
  EXPECT_GT(series.fit.slope, 0.25);
  EXPECT_LT(series.fit.slope, 1.1);
}

// Contrast: the diameter is logarithmic while search cost is polynomial.
TEST(Integration, DiameterLogarithmicWhileSearchPolynomial) {
  Rng rng(5);
  const Graph small =
      sfs::gen::mori_tree(1024, sfs::gen::MoriParams{0.5}, rng);
  const Graph large =
      sfs::gen::mori_tree(16384, sfs::gen::MoriParams{0.5}, rng);
  const auto d_small = sfs::graph::pseudo_diameter(small);
  const auto d_large = sfs::graph::pseudo_diameter(large);
  // 16x more vertices, diameter grows far sublinearly (log-like): at most
  // ~3x on trees of this shape.
  EXPECT_LT(d_large, 3 * d_small + 5);
}

// E6 in miniature: Móri degree distribution is heavy-tailed with exponent
// near 1 + 1/p.
TEST(Integration, MoriDegreeExponentMatchesTheory) {
  Rng rng(7);
  const double p = 0.5;
  const Graph g = sfs::gen::mori_tree(60000, sfs::gen::MoriParams{p}, rng);
  const auto degrees =
      sfs::graph::degree_sequence(g, sfs::graph::DegreeKind::kIn);
  std::vector<std::size_t> positive;
  for (const auto d : degrees) {
    if (d >= 1) positive.push_back(d);
  }
  // Finite-size effect: the fitted exponent approaches the asymptotic
  // 1 + 1/p = 3 from below as the tail threshold grows (the small-degree
  // bulk is not yet a pure power law at n = 6e4).
  const auto deep_tail = sfs::stats::fit_power_law_tail(positive, 10);
  const auto shallow = sfs::stats::fit_power_law_tail(positive, 3);
  const double predicted =
      sfs::core::theory::mori_degree_distribution_exponent(p);
  EXPECT_NEAR(deep_tail.alpha, predicted, 0.5);
  EXPECT_GT(deep_tail.alpha, shallow.alpha);  // converging upward
  EXPECT_LT(deep_tail.alpha, predicted + 0.2);
}

// E5 in miniature: Móri max degree grows roughly like t^p.
TEST(Integration, MoriMaxDegreeExponent) {
  const double p = 0.75;
  const auto series = sfs::sim::measure_scaling(
      {2000, 4000, 8000, 16000, 32000}, 4, 11,
      [p](std::size_t n, std::uint64_t seed) {
        Rng rng(seed);
        const Graph g = sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng);
        return static_cast<double>(
            sfs::graph::max_degree(g, sfs::graph::DegreeKind::kIn));
      });
  EXPECT_NEAR(series.fit.slope, p, 0.2);
}

// E10 in miniature: the measured best-policy cost respects the estimated
// Lemma-1 bound.
TEST(Integration, MeasuredCostRespectsLowerBound) {
  const std::size_t n = 1024;
  const auto bound = sfs::core::mori_lower_bound(0.5, n, 2000, 13);
  const auto cost = sfs::sim::measure_portfolio(weak_plan(
      [n](Rng& rng) {
        return sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng);
      },
      sfs::sim::oldest_to_newest(), 10, 17, 5000000));
  // The bound is for expected cost; compare against the portfolio best with
  // slack for replication noise.
  EXPECT_GT(cost.best_policy().requests.mean, 0.5 * bound.bound);
}

// Serialization round-trip composes with search: identical results.
TEST(Integration, SerializedGraphSearchesIdentically) {
  Rng rng(19);
  const Graph g = sfs::gen::merged_mori_graph(
      300, 2, sfs::gen::MoriParams{0.6}, rng);
  const Graph h = sfs::graph::from_string(sfs::graph::to_string(g));
  sfs::search::BfsWeak bfs1;
  sfs::search::BfsWeak bfs2;
  Rng r1(23);
  Rng r2(23);
  const auto a = sfs::search::run_weak(g, 0, 299, bfs1, r1);
  const auto b = sfs::search::run_weak(h, 0, 299, bfs2, r2);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.path_length, b.path_length);
  EXPECT_TRUE(a.found);
}

// Cooper-Frieze graphs behave like Móri for searching: newest vertex is
// expensive relative to the oldest.
TEST(Integration, CooperFriezeNewestHarderThanOldest) {
  sfs::gen::CooperFriezeParams params;
  auto factory = [&params](Rng& rng) {
    return sfs::gen::cooper_frieze(500, params, rng).graph;
  };
  const auto to_newest = sfs::sim::measure_portfolio(
      weak_plan(factory, sfs::sim::oldest_to_newest(), 6, 29, 5000000));
  const auto to_oldest = sfs::sim::measure_portfolio(
      weak_plan(factory, sfs::sim::newest_to_paper_id(1), 6, 29, 5000000));
  EXPECT_LT(to_oldest.best_policy().requests.mean,
            to_newest.best_policy().requests.mean);
}

// BA graphs (total-degree preferential) have max degree ~ sqrt(n) — the
// regime where the paper notes its strong-model bound goes trivial.
TEST(Integration, BaMaxDegreeNearSqrt) {
  const auto series = sfs::sim::measure_scaling(
      {4000, 8000, 16000, 32000}, 4, 31,
      [](std::size_t n, std::uint64_t seed) {
        Rng rng(seed);
        const Graph g = sfs::gen::barabasi_albert(
            n, sfs::gen::BarabasiAlbertParams{1}, rng);
        return static_cast<double>(sfs::graph::max_degree(
            g, sfs::graph::DegreeKind::kUndirected));
      });
  EXPECT_NEAR(series.fit.slope, 0.5, 0.2);
}

}  // namespace

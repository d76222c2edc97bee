// Tests for the strong-to-weak simulation (the reduction in Theorem 1's
// strong-model proof).
#include "search/simulate.hpp"

#include <gtest/gtest.h>

#include "gen/mori.hpp"
#include "graph/builder.hpp"
#include "graph/degree.hpp"
#include "search/runner.hpp"
#include "search/strong_algorithms.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::search::run_search;
using sfs::search::SearchResult;
using sfs::search::StrongViaWeak;

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

TEST(StrongViaWeak, FindsTargetOnPath) {
  StrongViaWeak sim(sfs::search::make_degree_greedy_strong());
  Rng rng(1);
  const Graph g = path_graph(10);
  const SearchResult r = run_search(g, 0, 9, sim, rng);
  EXPECT_TRUE(r.found);
}

TEST(StrongViaWeak, NameReflectsInnerPolicy) {
  StrongViaWeak sim(sfs::search::make_degree_greedy_strong());
  EXPECT_EQ(sim.name(), "weak-sim(degree-greedy-strong)");
}

TEST(StrongViaWeak, RejectsNullInner) {
  EXPECT_THROW(StrongViaWeak(nullptr), std::invalid_argument);
}

class SimulationFidelity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulationFidelity, SlowdownBoundedByMaxDegree) {
  // The paper's argument: weak requests <= strong requests * max degree.
  Rng graph_rng(GetParam());
  const Graph g =
      sfs::gen::mori_tree(400, sfs::gen::MoriParams{0.4}, graph_rng);
  const auto dmax =
      sfs::graph::max_degree(g, sfs::graph::DegreeKind::kUndirected);

  StrongViaWeak sim(sfs::search::make_degree_greedy_strong());
  Rng weak_rng(GetParam() + 1000);
  const SearchResult weak = run_search(g, 0, 399, sim, weak_rng);
  ASSERT_TRUE(weak.found);
  EXPECT_LE(weak.requests, sim.strong_requests() * dmax);
}

TEST_P(SimulationFidelity, SameStrongRequestCountAsNativeRun) {
  // Running the same deterministic inner policy natively in the strong
  // model and through the simulation must issue the same number of strong
  // requests before finding the target (the simulation answers requests
  // with exactly the information the strong model would provide).
  Rng graph_rng(GetParam());
  const Graph g =
      sfs::gen::mori_tree(300, sfs::gen::MoriParams{0.5}, graph_rng);

  auto native = sfs::search::make_degree_greedy_strong();
  Rng strong_rng(7);
  const SearchResult strong = run_search(g, 0, 299, *native, strong_rng);
  ASSERT_TRUE(strong.found);

  StrongViaWeak sim(sfs::search::make_degree_greedy_strong());
  Rng weak_rng(7);
  const SearchResult weak = run_search(g, 0, 299, sim, weak_rng);
  ASSERT_TRUE(weak.found);

  // The simulated run may stop up to one strong request "early": the weak
  // layer reveals the target mid-way through opening a vertex.
  EXPECT_LE(sim.strong_requests(), strong.requests + 1);
  EXPECT_GE(sim.strong_requests() + 1, strong.requests);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationFidelity,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(StrongViaWeak, ChargesEachEdgeOnce) {
  StrongViaWeak sim(std::make_unique<sfs::search::BfsStrong>());
  Rng rng(2);
  const Graph g = path_graph(20);
  const SearchResult r = run_search(g, 0, 19, sim, rng);
  ASSERT_TRUE(r.found);
  EXPECT_LE(r.requests, g.num_edges());
}

TEST(StrongViaWeak, GivesUpWhenInnerExhausted) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  StrongViaWeak sim(std::make_unique<sfs::search::BfsStrong>());
  Rng rng(3);
  const SearchResult r = run_search(b.build(), 0, 3, sim, rng);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.gave_up);
}

TEST(MakeSimulatedDegreeGreedy, FactoryWorksEndToEnd) {
  auto sim = sfs::search::make_simulated_degree_greedy();
  Rng graph_rng(4);
  const Graph g =
      sfs::gen::mori_tree(200, sfs::gen::MoriParams{0.5}, graph_rng);
  Rng rng(5);
  const SearchResult r = run_search(g, 0, 199, *sim, rng);
  EXPECT_TRUE(r.found);
}

}  // namespace

// Tests for the strong-model search policies.
#include "search/strong_algorithms.hpp"

#include <gtest/gtest.h>

#include <set>

#include "gen/mori.hpp"
#include "graph/builder.hpp"
#include "search/policy.hpp"
#include "search/runner.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::search::run_search;
using sfs::search::SearchResult;

// The full strong portfolio, in table order.
std::vector<std::unique_ptr<sfs::search::Searcher>> strong_searchers() {
  return sfs::search::make_searchers(sfs::search::resolve_policies(
      sfs::search::KnowledgeModel::kStrong, {}));
}

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

class StrongPortfolio : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::unique_ptr<sfs::search::Searcher> make() {
    auto portfolio = strong_searchers();
    return std::move(portfolio.at(GetParam()));
  }
};

TEST_P(StrongPortfolio, FindsTargetOnPath) {
  auto searcher = make();
  Rng rng(1);
  const Graph g = path_graph(10);
  const SearchResult r = run_search(g, 0, 9, *searcher, rng);
  EXPECT_TRUE(r.found) << searcher->name();
  // Strong requests on a path: must request at least 8 vertices to see 9.
  EXPECT_GE(r.requests, 8u);
  EXPECT_LE(r.requests, g.num_vertices());
}

TEST_P(StrongPortfolio, FindsNewestInMoriTree) {
  auto searcher = make();
  Rng graph_rng(2);
  const Graph g =
      sfs::gen::mori_tree(300, sfs::gen::MoriParams{0.4}, graph_rng);
  Rng rng(3);
  const SearchResult r = run_search(g, 0, 299, *searcher, rng);
  EXPECT_TRUE(r.found) << searcher->name();
  EXPECT_LE(r.requests, g.num_vertices());
}

TEST_P(StrongPortfolio, GivesUpOnDisconnectedTarget) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  auto searcher = make();
  Rng rng(4);
  const SearchResult r = run_search(b.build(), 0, 3, *searcher, rng);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.gave_up);
  EXPECT_LE(r.requests, 2u);  // only 0 and 1 requestable
}

TEST_P(StrongPortfolio, DeterministicForSeed) {
  Rng graph_rng(5);
  const Graph g =
      sfs::gen::mori_tree(100, sfs::gen::MoriParams{0.5}, graph_rng);
  auto s1 = make();
  auto s2 = make();
  Rng r1(6);
  Rng r2(6);
  const SearchResult a = run_search(g, 0, 99, *s1, r1);
  const SearchResult b = run_search(g, 0, 99, *s2, r2);
  EXPECT_EQ(a.requests, b.requests);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, StrongPortfolio,
                         ::testing::Range<std::size_t>(0, 5));

TEST(StrongPortfolioMeta, NamesUnique) {
  auto portfolio = strong_searchers();
  std::set<std::string> names;
  for (const auto& s : portfolio) names.insert(s->name());
  EXPECT_EQ(names.size(), portfolio.size());
}

TEST(DegreeGreedyStrong, RequestsHubFirst) {
  // Star with a pendant: from a leaf, the hub (visible, degree 6) must be
  // requested before any other leaf.
  GraphBuilder b(8);
  for (VertexId v = 1; v <= 5; ++v) b.add_edge(v, 0);
  b.add_edge(6, 0);
  b.add_edge(7, 6);
  const Graph g = b.build();
  auto greedy = sfs::search::make_degree_greedy_strong();
  Rng rng(7);
  const SearchResult r = run_search(g, 1, 7, *greedy, rng);
  EXPECT_TRUE(r.found);
  // Request 1 (self: reveals hub), request hub (reveals all leaves + 6),
  // request 6 (reveals 7). Degree-greedy goes 1 -> 0 -> 6: 3 requests.
  EXPECT_EQ(r.requests, 3u);
}

TEST(BfsStrong, ExpandsInDiscoveryOrder) {
  const Graph g = path_graph(6);
  sfs::search::BfsStrong bfs;
  Rng rng(8);
  const SearchResult r = run_search(g, 0, 5, bfs, rng);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.requests, 5u);  // 0,1,2,3,4
}

TEST(MinIdStrong, FindsRootFast) {
  Rng graph_rng(9);
  const Graph g =
      sfs::gen::mori_tree(400, sfs::gen::MoriParams{0.5}, graph_rng);
  auto minid = sfs::search::make_min_id_strong();
  Rng rng(10);
  const SearchResult r = run_search(g, 399, 0, *minid, rng);
  EXPECT_TRUE(r.found);
  // Following the age gradient: about depth-many requests.
  EXPECT_LT(r.requests, 50u);
}

TEST(MaxIdStrong, StillTerminates) {
  Rng graph_rng(11);
  const Graph g =
      sfs::gen::mori_tree(200, sfs::gen::MoriParams{0.5}, graph_rng);
  auto maxid = sfs::search::make_max_id_strong();
  Rng rng(12);
  const SearchResult r = run_search(g, 0, 199, *maxid, rng);
  EXPECT_TRUE(r.found);
}

TEST(RandomStrong, FindsTargetEventually) {
  Rng graph_rng(13);
  const Graph g =
      sfs::gen::mori_tree(150, sfs::gen::MoriParams{0.5}, graph_rng);
  sfs::search::RandomStrong random;
  Rng rng(14);
  const SearchResult r = run_search(g, 0, 149, random, rng);
  EXPECT_TRUE(r.found);
  EXPECT_LE(r.requests, g.num_vertices());
}

}  // namespace

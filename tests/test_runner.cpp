// Tests for the search runner: budgets, give-up, result consistency.
#include "search/runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "gen/mori.hpp"
#include "graph/builder.hpp"
#include "search/weak_algorithms.hpp"
#include "search/strong_algorithms.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::search::run_search;
using sfs::search::RunBudget;
using sfs::search::SearchResult;

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

TEST(TruncateRun, EqualsTheRunUnderEveryCap) {
  // dfs from the root of a recursive tree makes charged requests only,
  // so its unbudgeted run, truncated at any cap, is its run under that
  // cap, whether the cap is on charged or raw requests. The second graph
  // hides the target in another component: dfs gives up.
  Rng tree_rng(3);
  const Graph tree =
      sfs::gen::mori_tree(120, sfs::gen::MoriParams{0.5}, tree_rng);
  GraphBuilder b(6);
  b.add_edge(1, 0);
  b.add_edge(2, 0);
  b.add_edge(3, 2);
  b.add_edge(5, 4);
  const Graph split = b.build();
  for (const Graph* graph : {&tree, &split}) {
    const Graph& g = *graph;
    const auto target = static_cast<VertexId>(g.num_vertices() - 1);
    sfs::search::DfsWeak dfs;
    Rng rng(1);
    const SearchResult full = run_search(g, 0, target, dfs, rng);
    ASSERT_EQ(full.raw_requests, full.requests);
    for (std::size_t cap = 0; cap <= full.requests + 1; ++cap) {
      for (const RunBudget budget :
           {RunBudget{.max_requests = cap}, RunBudget{.max_raw_requests = cap}}) {
        sfs::search::DfsWeak capped;
        Rng capped_rng(1);
        EXPECT_EQ(sfs::search::truncate_run(full, budget),
                  run_search(g, 0, target, capped, capped_rng, budget))
            << "cap " << cap << " of " << full.requests;
      }
    }
  }
}

TEST(TruncateRun, RejectsRawRequestsAndShorterBudgets) {
  const Graph g = path_graph(50);
  sfs::search::RandomWalkWeak walk;
  Rng rng(2);
  const SearchResult walked =
      run_search(g, 0, 49, walk, rng, RunBudget{.max_raw_requests = 400});
  ASSERT_GT(walked.raw_requests, walked.requests);
  EXPECT_THROW((void)sfs::search::truncate_run(walked, RunBudget{}),
               std::logic_error);
  sfs::search::DfsWeak dfs;
  const SearchResult stopped =
      run_search(g, 0, 49, dfs, rng, RunBudget{.max_requests = 10});
  ASSERT_TRUE(stopped.budget_exhausted);
  EXPECT_EQ(sfs::search::truncate_run(stopped, RunBudget{.max_requests = 7}),
            (SearchResult{.requests = 7, .raw_requests = 7,
                          .budget_exhausted = true}));
  EXPECT_THROW(
      (void)sfs::search::truncate_run(stopped, RunBudget{.max_requests = 11}),
      std::logic_error);
}

TEST(Runner, WeakBudgetStopsSearch) {
  const Graph g = path_graph(50);
  sfs::search::BfsWeak bfs;
  Rng rng(1);
  const SearchResult r =
      run_search(g, 0, 49, bfs, rng, RunBudget{.max_requests = 10});
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_FALSE(r.gave_up);
  EXPECT_EQ(r.requests, 10u);
  EXPECT_EQ(r.path_length, 0u);
}

TEST(Runner, RawBudgetStopsRandomWalk) {
  const Graph g = path_graph(100);
  sfs::search::RandomWalkWeak walk;
  Rng rng(2);
  const SearchResult r =
      run_search(g, 0, 99, walk, rng, RunBudget{.max_raw_requests = 50});
  EXPECT_TRUE(r.budget_exhausted || r.found);
  EXPECT_LE(r.raw_requests, 50u);
}

TEST(Runner, StrongBudgetStopsSearch) {
  const Graph g = path_graph(50);
  sfs::search::BfsStrong bfs;
  Rng rng(3);
  const SearchResult r =
      run_search(g, 0, 49, bfs, rng, RunBudget{.max_requests = 5});
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.requests, 5u);
}

TEST(Runner, GaveUpOnUnreachableTarget) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  // 3, 4 disconnected
  b.add_edge(3, 4);
  sfs::search::BfsWeak bfs;
  Rng rng(4);
  const SearchResult r = run_search(b.build(), 0, 4, bfs, rng);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.gave_up);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_EQ(r.requests, 2u);
}

TEST(Runner, PathLengthAtMostRequests) {
  const Graph g = path_graph(20);
  sfs::search::DfsWeak dfs;
  Rng rng(5);
  const SearchResult r = run_search(g, 0, 19, dfs, rng);
  ASSERT_TRUE(r.found);
  EXPECT_LE(r.path_length, r.requests);
}

TEST(Runner, ZeroBudgetReturnsImmediately) {
  const Graph g = path_graph(5);
  sfs::search::BfsWeak bfs;
  Rng rng(6);
  const SearchResult r =
      run_search(g, 0, 4, bfs, rng, RunBudget{.max_requests = 0});
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.requests, 0u);
}

TEST(Runner, StartEqualsTargetNeedsNoRequests) {
  const Graph g = path_graph(5);
  sfs::search::RandomWalkWeak walk;
  Rng rng(7);
  const SearchResult r = run_search(g, 3, 3, walk, rng);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.requests, 0u);
  EXPECT_EQ(r.raw_requests, 0u);
}

TEST(Runner, RawAtLeastCharged) {
  const Graph g = path_graph(30);
  sfs::search::RandomWalkWeak walk;
  Rng rng(8);
  const SearchResult r =
      run_search(g, 0, 29, walk, rng, RunBudget{.max_raw_requests = 100000});
  EXPECT_GE(r.raw_requests, r.requests);
}

}  // namespace

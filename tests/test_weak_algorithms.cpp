// Tests for the weak-model search policies.
#include "search/weak_algorithms.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/mori.hpp"
#include "graph/builder.hpp"
#include "search/local_view.hpp"
#include "search/policy.hpp"
#include "search/runner.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::search::run_search;
using sfs::search::RunBudget;
using sfs::search::SearchResult;

// The full weak portfolio, in table order.
std::vector<std::unique_ptr<sfs::search::Searcher>> weak_searchers() {
  return sfs::search::make_searchers(sfs::search::resolve_policies(
      sfs::search::KnowledgeModel::kWeak, {}));
}

// The weak policy named `name`, through the interface a step-by-step
// driver calls: downcast once its model() is checked.
std::unique_ptr<sfs::search::WeakSearcher> weak_policy(const char* name) {
  auto searcher = sfs::search::find_policy(name)->make();
  if (searcher->model() != sfs::search::KnowledgeModel::kWeak) {
    throw std::logic_error(std::string(name) + " is no weak policy");
  }
  return std::unique_ptr<sfs::search::WeakSearcher>(
      static_cast<sfs::search::WeakSearcher*>(searcher.release()));
}

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph star_with_tail() {
  // Star centered at 0 with leaves 1..4, plus a tail 4 - 5 - 6.
  GraphBuilder b(7);
  for (VertexId v = 1; v <= 4; ++v) b.add_edge(v, 0);
  b.add_edge(4, 5);
  b.add_edge(5, 6);
  return b.build();
}

// Every portfolio policy must find the target on a connected graph.
class WeakPortfolio : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::unique_ptr<sfs::search::Searcher> make() {
    auto portfolio = weak_searchers();
    return std::move(portfolio.at(GetParam()));
  }
};

TEST_P(WeakPortfolio, FindsTargetOnPath) {
  auto searcher = make();
  Rng rng(1);
  const Graph g = path_graph(12);
  const SearchResult r = run_search(g, 0, 11, *searcher, rng);
  EXPECT_TRUE(r.found) << searcher->name();
  EXPECT_GE(r.requests, 11u);  // must traverse the whole path
  EXPECT_EQ(r.path_length, 11u);
}

TEST_P(WeakPortfolio, FindsTargetOnStarWithTail) {
  auto searcher = make();
  Rng rng(2);
  const Graph g = star_with_tail();
  const SearchResult r = run_search(g, 1, 6, *searcher, rng);
  EXPECT_TRUE(r.found) << searcher->name();
  EXPECT_GT(r.requests, 0u);
}

TEST_P(WeakPortfolio, FindsNewestVertexInMoriTree) {
  auto searcher = make();
  Rng graph_rng(3);
  const Graph g =
      sfs::gen::mori_tree(300, sfs::gen::MoriParams{0.5}, graph_rng);
  Rng rng(4);
  const SearchResult r = run_search(g, 0, 299, *searcher, rng,
                                    RunBudget{.max_raw_requests = 2000000});
  EXPECT_TRUE(r.found) << searcher->name();
  // Charged requests can never exceed the edge count.
  EXPECT_LE(r.requests, g.num_edges());
}

TEST_P(WeakPortfolio, ImmediateSuccessWhenStartIsTarget) {
  auto searcher = make();
  Rng rng(5);
  const Graph g = path_graph(5);
  const SearchResult r = run_search(g, 2, 2, *searcher, rng);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.requests, 0u);
  EXPECT_EQ(r.path_length, 0u);
}

TEST_P(WeakPortfolio, DeterministicForSeed) {
  const Graph g = star_with_tail();
  auto s1 = make();
  auto s2 = make();
  Rng r1(6);
  Rng r2(6);
  const SearchResult a = run_search(g, 1, 6, *s1, r1);
  const SearchResult b = run_search(g, 1, 6, *s2, r2);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.raw_requests, b.raw_requests);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, WeakPortfolio,
                         ::testing::Range<std::size_t>(0, 10));

TEST(WeakPortfolioMeta, NamesAreUniqueAndNonEmpty) {
  std::vector<std::string> names;
  for (const auto& s : weak_searchers()) names.push_back(s->name());
  EXPECT_EQ(names.size(), 10u);
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  for (const auto& n : names) EXPECT_FALSE(n.empty());
}

TEST(BfsWeak, ChargesEveryEdgeAtMostOnce) {
  sfs::search::BfsWeak bfs;
  Rng rng(7);
  const Graph g = star_with_tail();
  const SearchResult r = run_search(g, 0, 6, bfs, rng);
  EXPECT_TRUE(r.found);
  EXPECT_LE(r.requests, g.num_edges());
  EXPECT_EQ(r.requests, r.raw_requests);  // BFS never repeats a request
}

TEST(BfsWeak, ExploresInBreadthOrder) {
  // On the star, BFS from the center reveals all leaves before walking the
  // tail: finding leaf 3 takes at most deg(center) requests.
  sfs::search::BfsWeak bfs;
  Rng rng(8);
  const Graph g = star_with_tail();
  const SearchResult r = run_search(g, 0, 3, bfs, rng);
  EXPECT_TRUE(r.found);
  EXPECT_LE(r.requests, 4u);
}

TEST(DfsWeak, FollowsOneBranchDeep) {
  sfs::search::DfsWeak dfs;
  Rng rng(9);
  const Graph g = path_graph(20);
  const SearchResult r = run_search(g, 0, 19, dfs, rng);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.requests, 19u);
}

TEST(DegreeGreedyWeak, PrefersHighDegreeVertex) {
  // Two-hub graph: hub A (0, degree 6) and hub B (7, degree 3); start
  // bridges both. Degree-greedy must exhaust hub A before hub B.
  GraphBuilder b(11);
  for (VertexId v = 1; v <= 5; ++v) b.add_edge(v, 0);   // hub A leaves
  b.add_edge(6, 0);                                     // start -> hub A
  b.add_edge(6, 7);                                     // start -> hub B
  b.add_edge(8, 7);
  b.add_edge(9, 7);                                     // hub B leaves
  b.add_edge(10, 9);                                    // target behind B
  const Graph g = b.build();
  auto greedy = sfs::search::make_degree_greedy_weak();
  Rng rng(10);
  const SearchResult r = run_search(g, 6, 10, *greedy, rng);
  EXPECT_TRUE(r.found);
  // It must have explored hub A's 6 edges plus hub B's 3 plus the tail:
  // cost reflects the detour through the high-degree hub.
  EXPECT_GE(r.requests, 9u);
}

TEST(MinIdGreedy, ClimbsTowardOldVertices) {
  Rng graph_rng(11);
  const Graph g =
      sfs::gen::mori_tree(500, sfs::gen::MoriParams{0.5}, graph_rng);
  auto minid = sfs::search::make_min_id_greedy_weak();
  Rng rng(12);
  // Searching for the ROOT from the newest vertex should be very fast:
  // min-id greedy follows the age gradient.
  const SearchResult r = run_search(g, 499, 0, *minid, rng);
  EXPECT_TRUE(r.found);
  EXPECT_LT(r.requests, 100u);
}

TEST(RandomWalkWeak, EventuallyFindsOnSmallGraph) {
  sfs::search::RandomWalkWeak walk;
  Rng rng(13);
  const Graph g = path_graph(6);
  const SearchResult r =
      run_search(g, 0, 5, walk, rng, RunBudget{.max_raw_requests = 100000});
  EXPECT_TRUE(r.found);
  EXPECT_GE(r.raw_requests, r.requests);
}

TEST(NoBacktrackWalk, NeverImmediatelyReturnsOnDegreeTwo) {
  // On a cycle, a no-backtrack walk is a deterministic direction sweep, so
  // it reaches the antipode in exactly n/2 or wraps in n-1 steps.
  GraphBuilder b(10);
  for (VertexId v = 0; v < 10; ++v)
    b.add_edge(v, static_cast<VertexId>((v + 1) % 10));
  sfs::search::NoBacktrackWalkWeak walk;
  Rng rng(14);
  const SearchResult r = run_search(b.build(), 0, 5, walk, rng);
  EXPECT_TRUE(r.found);
  EXPECT_LE(r.raw_requests, 9u);
}

TEST(NoBacktrackWalk, TakesAnArrivalSelfLoopAgainAtItsOnlyEdge) {
  // Vertex 0's only edge is a self-loop, listed twice in its incidence.
  // Having arrived by it, the walk has no other edge, so it keeps taking
  // it (one charged request, then repeats) until the raw budget runs out.
  GraphBuilder b(3);
  b.add_edge(0, 0);
  b.add_edge(1, 2);
  sfs::search::NoBacktrackWalkWeak walk;
  Rng rng(16);
  const SearchResult r = run_search(b.build(), 0, 2, walk, rng,
                                    RunBudget{.max_raw_requests = 1000});
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.requests, 1u);
  EXPECT_EQ(r.raw_requests, 1000u);
}

TEST(RandomFrontierWeak, CoversDisconnectedComponentGracefully) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  sfs::search::RandomFrontierWeak frontier;
  Rng rng(15);
  const SearchResult r = run_search(b.build(), 0, 3, frontier, rng);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.gave_up);
  EXPECT_EQ(r.requests, 1u);  // only edge 0-1 reachable
}

// What a search from vertex 0 for the newest vertex reveals: the view's
// known vertices in discovery order, and its charged requests.
struct Revealed {
  std::vector<VertexId> known;
  std::size_t requests = 0;
  friend bool operator==(const Revealed&, const Revealed&) = default;
};

// Runs `policy` as the runner's static loop does (search/runner.cpp), on
// a view the test can read afterwards.
Revealed reveal(const Graph& g, const char* policy,
                sfs::search::SearchWorkspace& ws) {
  const auto searcher = weak_policy(policy);
  const auto target = static_cast<VertexId>(g.num_vertices() - 1);
  Rng rng(7);
  sfs::search::LocalView view(g, sfs::search::KnowledgeModel::kWeak, 0,
                              target, ws);
  searcher->start(view, rng);
  while (!view.target_found()) {
    const auto req = searcher->next(view, rng);
    if (!req) break;
    searcher->observe(view, *req, view.request_edge(*req));
  }
  const auto known = view.known_vertices();
  Revealed out{{known.begin(), known.end()}, view.requests()};
  // The hand loop is the runner's: same charged requests.
  Rng runner_rng(7);
  const auto runner_searcher = sfs::search::find_policy(policy)->make();
  EXPECT_EQ(run_search(g, 0, target, *runner_searcher, runner_rng).requests,
            out.requests)
      << policy;
  return out;
}

// On a recursive tree searched from its root, the known vertices with
// unexplored edges always form the path from the root to the vertex
// revealed last, with ids increasing along it. So dfs's stack top,
// max-id-greedy's maximum and the vertex frontier-walk drifts back to are
// one vertex, and all three take its first unexplored slot: they make the
// same charged requests in the same order.
TEST(RecursiveTreeDuplicates, DfsMaxIdGreedyAndFrontierWalkAgree) {
  sfs::search::SearchWorkspace ws;
  std::size_t graphs = 0;
  for (const double p : {0.0, 0.25, 0.5, 0.75}) {
    for (const std::size_t n : {2, 3, 5, 17, 100, 600}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed);
        const Graph g = sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng);
        const Revealed dfs = reveal(g, "dfs", ws);
        EXPECT_EQ(dfs.known.back(), n - 1);
        EXPECT_EQ(reveal(g, "max-id-greedy", ws), dfs)
            << "p=" << p << " n=" << n << " seed=" << seed;
        EXPECT_EQ(reveal(g, "frontier-walk", ws), dfs)
            << "p=" << p << " n=" << n << " seed=" << seed;
        ++graphs;
      }
    }
  }
  EXPECT_EQ(graphs, 120u);
}

TEST(RecursiveTreeDuplicates, TableTwinsRepeatTheirTwinsRuns) {
  // Every PolicySpec::rooted_tree_twin pair gives equal SearchResults,
  // charged requests only, on recursive trees searched from vertex 0:
  // what measure_portfolio's derivation of the twin's result needs.
  std::size_t pairs = 0;
  for (const auto& spec : sfs::search::all_policies()) {
    if (spec.rooted_tree_twin.empty()) continue;
    const auto* twin = sfs::search::find_policy(spec.rooted_tree_twin);
    ASSERT_NE(twin, nullptr) << spec.name;
    ASSERT_EQ(twin->model, sfs::search::KnowledgeModel::kWeak) << spec.name;
    ASSERT_EQ(spec.model, sfs::search::KnowledgeModel::kWeak) << spec.name;
    ++pairs;
    for (const double p : {0.0, 0.25, 0.5, 0.75}) {
      for (const std::size_t n : {2, 3, 5, 17, 100, 600}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
          Rng rng(seed);
          const Graph g = sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng);
          const auto target = static_cast<VertexId>(n - 1);
          Rng twin_rng(seed);
          Rng spec_rng(seed + 1);
          const SearchResult want =
              run_search(g, 0, target, *twin->make(), twin_rng);
          EXPECT_EQ(want.raw_requests, want.requests) << twin->name;
          EXPECT_EQ(run_search(g, 0, target, *spec.make(), spec_rng), want)
              << spec.name << " p=" << p << " n=" << n << " seed=" << seed;
        }
      }
    }
  }
  EXPECT_EQ(pairs, 1u);  // max-id-greedy, whose twin is dfs
}

TEST(RecursiveTreeDuplicates, MergedGraphsSeparateThem) {
  // With m = 2 a vertex has two earlier neighbours, so the tree argument
  // fails and the three policies part on some graphs.
  sfs::search::SearchWorkspace ws;
  std::size_t differ = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Graph g =
        sfs::gen::merged_mori_graph(200, 2, sfs::gen::MoriParams{0.5}, rng);
    const Revealed dfs = reveal(g, "dfs", ws);
    if (!(reveal(g, "max-id-greedy", ws) == dfs) ||
        !(reveal(g, "frontier-walk", ws) == dfs)) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 0u);
}

// degree-greedy against weak-sim(degree-greedy-strong). Both open the
// known vertex of highest degree (ties to the smaller id) slot by slot,
// but degree-greedy re-ranks after every edge: a neighbour revealed while
// a vertex is being opened, whose degree beats it, is opened first, and
// the rest of the vertex waits. weak-sim asks its strong policy only once
// the vertex being opened has no unexplored edge left.

// One weak request and what it revealed.
struct Probe {
  VertexId u = 0;
  std::uint32_t slot = 0;
  VertexId revealed = 0;
  friend bool operator==(const Probe&, const Probe&) = default;
};

// The requests `policy` makes from vertex 0 until it finds `target`,
// through a hand copy of the runner's static loop.
std::vector<Probe> probes(const Graph& g, const char* policy,
                          VertexId target) {
  const auto searcher = weak_policy(policy);
  sfs::search::SearchWorkspace ws;
  Rng rng(7);
  sfs::search::LocalView view(g, sfs::search::KnowledgeModel::kWeak, 0,
                              target, ws);
  searcher->start(view, rng);
  std::vector<Probe> out;
  while (!view.target_found()) {
    const auto req = searcher->next(view, rng);
    if (!req) break;
    const VertexId v = view.request_edge(*req);
    searcher->observe(view, *req, v);
    out.push_back({req->u, req->slot, v});
  }
  return out;
}

constexpr const char* kWeakSim = "weak-sim(degree-greedy-strong)";

// Vertex 0 (degree 2) reveals 1 (degree 3) first, which outranks it.
// Slots of 0: edges 0-1, 0-target; slots of 1: edges 0-1, 1-2, 1-3.
TEST(DegreeGreedyAgainstWeakSim, PreemptionDelaysAnOpenedVertexsEdge) {
  GraphBuilder b(5);
  b.add_edge(1, 0);
  b.add_edge(2, 1);
  b.add_edge(3, 1);
  b.add_edge(4, 0);
  const Graph g = b.build();
  const std::vector<Probe> greedy{{0, 0, 1}, {1, 1, 2}, {1, 2, 3}, {0, 1, 4}};
  const std::vector<Probe> sim{{0, 0, 1}, {0, 1, 4}};
  EXPECT_EQ(probes(g, "degree-greedy", 4), greedy);
  EXPECT_EQ(probes(g, kWeakSim, 4), sim);
}

// The same preemption pays when the target hangs off the preempting
// vertex: weak-sim finishes 0 first and spends a request on 0-2.
TEST(DegreeGreedyAgainstWeakSim, PreemptionCanAlsoSaveRequests) {
  GraphBuilder b(5);
  b.add_edge(1, 0);
  b.add_edge(2, 0);
  b.add_edge(3, 1);
  b.add_edge(4, 1);
  const Graph g = b.build();
  const std::vector<Probe> greedy{{0, 0, 1}, {1, 1, 3}, {1, 2, 4}};
  const std::vector<Probe> sim{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}, {1, 2, 4}};
  EXPECT_EQ(probes(g, "degree-greedy", 4), greedy);
  EXPECT_EQ(probes(g, kWeakSim, 4), sim);
}

// A revealed neighbour of equal degree does not preempt (ties go to the
// smaller id, and on a recursive tree the neighbour is the younger one).
TEST(DegreeGreedyAgainstWeakSim, EqualDegreeDoesNotPreempt) {
  GraphBuilder b(4);
  b.add_edge(1, 0);
  b.add_edge(2, 0);
  b.add_edge(3, 1);
  const Graph g = b.build();
  const std::vector<Probe> both{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}};
  EXPECT_EQ(probes(g, "degree-greedy", 3), both);
  EXPECT_EQ(probes(g, kWeakSim, 3), both);
}

// On Móri trees searched from the root for the newest vertex, the two
// policies agree until the first preemption: the first request where they
// part is degree-greedy's request on the vertex just revealed, whose
// degree beats the vertex weak-sim goes on opening.
TEST(DegreeGreedyAgainstWeakSim, FirstDifferenceIsAPreemptionOnMoriTrees) {
  std::size_t differ = 0;
  for (const double p : {0.25, 0.5, 0.75}) {
    for (const std::size_t n : {100, 600}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed);
        const Graph g = sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng);
        const auto target = static_cast<VertexId>(n - 1);
        const auto greedy = probes(g, "degree-greedy", target);
        const auto sim = probes(g, kWeakSim, target);
        std::size_t i = 0;
        while (i < greedy.size() && i < sim.size() && greedy[i] == sim[i]) ++i;
        if (i == greedy.size() && i == sim.size()) continue;
        ++differ;
        SCOPED_TRACE("p=" + std::to_string(p) + " n=" + std::to_string(n) +
                     " seed=" + std::to_string(seed));
        ASSERT_GT(i, 0u);
        ASSERT_LT(i, greedy.size());
        ASSERT_LT(i, sim.size());
        EXPECT_EQ(greedy[i].u, greedy[i - 1].revealed);
        EXPECT_EQ(sim[i].u, sim[i - 1].u);
        EXPECT_GT(g.degree(greedy[i].u), g.degree(sim[i].u));
      }
    }
  }
  EXPECT_GT(differ, 0u);
}

}  // namespace

// Tests for liveness-masked runs (search/runner.hpp): failed probes absorbed
// by the RetryBudget, policy restarts, abandonment, and the empty-mask ==
// static bit-identity invariant that makes churn-rate-0 exact.
#include <gtest/gtest.h>

#include <cstdint>
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
using sfs::search::LivenessView;
using sfs::search::RetryBudget;
using sfs::search::RunBudget;
using sfs::search::SearchResult;
using sfs::search::SearchWorkspace;

struct Masks {
  std::vector<std::uint8_t> v;
  std::vector<std::uint8_t> e;
  explicit Masks(const Graph& g)
      : v(g.num_vertices(), 1u), e(g.num_edges(), 1u) {}
  [[nodiscard]] LivenessView view() const { return {v, e}; }
};

void expect_identical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.raw_requests, b.raw_requests);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.path_length, b.path_length);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.abandoned, b.abandoned);
}

TEST(TolerantRunner, EmptyMaskIsBitIdenticalToStaticRun) {
  // The churn-rate-0 invariant at the runner level: with no mask the
  // failure branch is unreachable and consumes no randomness, so a masked
  // run must reproduce the static run bit for bit — including for
  // randomized policies, the hardest case. Both an empty mask and an
  // all-alive mask are checked against the plain static overload.
  sfs::rng::Rng gen_rng(77);
  const Graph g =
      sfs::gen::merged_mori_graph(250, 2, sfs::gen::MoriParams{0.5}, gen_rng);
  const Masks all_alive(g);
  RunBudget budget;
  budget.max_raw_requests = 15000;
  SearchWorkspace ws;

  for (const LivenessView liveness : {LivenessView{}, all_alive.view()}) {
    for (const char* name : {"random-walk", "bfs", "degree-greedy",
                             "random-strong", "degree-greedy-strong"}) {
      auto s1 = sfs::search::find_policy(name)->make();
      auto s2 = sfs::search::find_policy(name)->make();
      sfs::rng::Rng r1(0xBEEF), r2(0xBEEF);
      const SearchResult fixed = run_search(g, 3, 200, *s1, r1, budget);
      const SearchResult masked = run_search(g, 3, 200, *s2, r2, budget, ws,
                                             liveness, RetryBudget{});
      expect_identical(fixed, masked);
      EXPECT_EQ(masked.failed_requests, 0u) << name;
    }
  }
}

TEST(TolerantRunner, WeakSearchRestartsPastDeadLinksAndSucceeds) {
  // Star at 0 with five dead spokes probed (in slot order, by bfs) before
  // the one live edge to the target. With a streak budget of 2 the run
  // must restart twice — and still succeed, because failed probes mark
  // their edges explored, so each restart resumes past them.
  GraphBuilder b(7);
  for (VertexId v = 1; v <= 5; ++v) b.add_edge(0, v);  // edges 0..4: dead
  b.add_edge(0, 6);                                    // edge 5: live
  const Graph g = b.build();
  Masks m(g);
  for (std::size_t e = 0; e < 5; ++e) m.e[e] = 0;

  auto searcher = sfs::search::find_policy("bfs")->make();
  sfs::rng::Rng rng(1);
  SearchWorkspace ws;
  RetryBudget retry;
  retry.max_consecutive_failures = 2;
  retry.max_restarts = 5;
  const SearchResult r =
      run_search(g, 0, 6, *searcher, rng, RunBudget{}, ws, m.view(), retry);
  EXPECT_TRUE(r.found);
  EXPECT_FALSE(r.abandoned);
  EXPECT_EQ(r.failed_requests, 5u);  // every dead spoke probed exactly once
  EXPECT_EQ(r.restarts, 1u);        // streak 3 hit once (3rd + 4th reset it)
  EXPECT_EQ(r.requests, 1u);        // only the live probe was charged
  EXPECT_EQ(r.path_length, 1u);
}

TEST(TolerantRunner, WeakFrontierPoliciesResumeFromKnownVerticesOnRestart) {
  // Edges 0-1, 0-2, 0-3, dead links 1-4 .. 1-8, then the live link 1-9.
  // Every frontier policy reaches 1 and strands on its dead links, so the
  // runner restarts it. A restart re-plans on the retained knowledge: the
  // policy resumes from every known vertex, finds 1's live link and
  // reaches the target, instead of giving up once the start is exhausted.
  GraphBuilder b(10);
  for (VertexId v = 1; v <= 3; ++v) b.add_edge(0, v);
  for (VertexId v = 4; v <= 9; ++v) b.add_edge(1, v);  // edges 3..8
  const Graph g = b.build();
  Masks m(g);
  for (std::size_t e = 3; e <= 7; ++e) m.e[e] = 0;

  RetryBudget retry;
  retry.max_consecutive_failures = 2;
  retry.max_restarts = 5;
  SearchWorkspace ws;
  for (const char* name : {"bfs", "dfs", "degree-greedy", "min-id-greedy",
                           "max-id-greedy", "random-frontier"}) {
    auto searcher = sfs::search::find_policy(name)->make();
    sfs::rng::Rng rng(4);
    const SearchResult r =
        run_search(g, 0, 9, *searcher, rng, RunBudget{}, ws, m.view(), retry);
    EXPECT_TRUE(r.found) << name;
    EXPECT_FALSE(r.gave_up) << name;
    EXPECT_FALSE(r.abandoned) << name;
    EXPECT_GE(r.restarts, 1u) << name;
    EXPECT_EQ(r.failed_requests, 5u) << name;  // each dead link once
    EXPECT_EQ(r.path_length, 2u) << name;      // 0 -> 1 -> 9
  }
}

TEST(TolerantRunner, AbandonsWhenRetryBudgetRunsDry) {
  GraphBuilder b(7);
  for (VertexId v = 1; v <= 5; ++v) b.add_edge(0, v);
  b.add_edge(0, 6);
  const Graph g = b.build();
  Masks m(g);
  for (std::size_t e = 0; e < 5; ++e) m.e[e] = 0;

  auto searcher = sfs::search::find_policy("bfs")->make();
  sfs::rng::Rng rng(1);
  SearchWorkspace ws;
  RetryBudget retry;
  retry.max_consecutive_failures = 2;
  retry.max_restarts = 0;  // no second chances
  const SearchResult r =
      run_search(g, 0, 6, *searcher, rng, RunBudget{}, ws, m.view(), retry);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.abandoned);
  EXPECT_EQ(r.restarts, 0u);
  EXPECT_EQ(r.failed_requests, 3u);  // stopped at the third straight failure
  EXPECT_EQ(r.requests, 0u);
}

TEST(TolerantRunner, StrongSearchSpendsProbesDiscoveringDepartures) {
  // Stale routing tables: opening 0 lists departed neighbors 1 and 2, and
  // the searcher only learns they are gone by spending a (failed, free)
  // probe on each before reaching the target through 3.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  b.add_edge(3, 4);
  const Graph g = b.build();
  Masks m(g);
  m.v[1] = 0;
  m.v[2] = 0;

  auto searcher = sfs::search::find_policy("bfs-strong")->make();
  sfs::rng::Rng rng(2);
  SearchWorkspace ws;
  const SearchResult r =
      run_search(g, 0, 4, *searcher, rng, RunBudget{}, ws, m.view());
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.failed_requests, 2u);
  EXPECT_EQ(r.restarts, 0u);  // default streak budget absorbs both
  EXPECT_FALSE(r.abandoned);
  EXPECT_EQ(r.path_length, 2u);  // 0 -> 3 -> 4
}

TEST(TolerantRunner, StrongSearchAbandonsUnreachableTarget) {
  // Every neighbor of the start departed; the target is alive but
  // unreachable, so the retry budget is the only thing that stops us.
  GraphBuilder b(6);
  for (VertexId v = 1; v <= 4; ++v) b.add_edge(0, v);
  const Graph g = b.build();  // vertex 5 isolated and alive
  Masks m(g);
  for (VertexId v = 1; v <= 4; ++v) m.v[v] = 0;

  auto searcher = sfs::search::find_policy("bfs-strong")->make();
  sfs::rng::Rng rng(3);
  SearchWorkspace ws;
  RetryBudget retry;
  retry.max_consecutive_failures = 2;
  retry.max_restarts = 0;
  const SearchResult r =
      run_search(g, 0, 5, *searcher, rng, RunBudget{}, ws, m.view(), retry);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.abandoned);
  EXPECT_EQ(r.failed_requests, 3u);
  EXPECT_EQ(r.requests, 1u);  // only the open of the live start was charged
}

}  // namespace

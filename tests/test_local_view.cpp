// Tests for LocalView: information gating, request accounting, discovery
// paths — the paper's two knowledge models made executable.
#include "search/local_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "gen/mori.hpp"
#include "graph/builder.hpp"
#include "search/policy.hpp"
#include "search/runner.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::kNoVertex;
using sfs::graph::VertexId;
using sfs::search::KnowledgeModel;
using sfs::search::LivenessView;
using sfs::search::LocalView;
using sfs::search::SearchWorkspace;

// Path 0 - 1 - 2 - 3 (edges 0,1,2). Incidence slots follow edge order:
// 0: [e0], 1: [e0, e1], 2: [e1, e2], 3: [e2].
Graph path4() {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  return b.build();
}

TEST(LocalViewWeak, StartIsKnownTargetIsNot) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
  EXPECT_TRUE(view.is_known(0));
  EXPECT_FALSE(view.is_known(1));
  EXPECT_FALSE(view.target_found());
  EXPECT_EQ(view.requests(), 0u);
  ASSERT_EQ(view.known_vertices().size(), 1u);
  EXPECT_EQ(view.known_vertices()[0], 0u);
}

TEST(LocalViewWeak, TrivialSearchWhenStartIsTarget) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 2, 2, ws);
  EXPECT_TRUE(view.target_found());
  EXPECT_EQ(view.discovery_path().size(), 1u);
}

TEST(LocalViewWeak, RequestRevealsFarEndpoint) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
  const VertexId v = view.request_edge({0, 0});
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(view.is_known(1));
  EXPECT_EQ(view.requests(), 1u);
  EXPECT_EQ(view.degree(1), 2u);  // degree of revealed vertex now visible
}

TEST(LocalViewWeak, UnknownVertexAccessRejected) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
  EXPECT_THROW((void)view.degree(1), std::invalid_argument);
  EXPECT_THROW((void)view.incident(2), std::invalid_argument);
  EXPECT_THROW((void)view.request_edge({1, 1}), std::invalid_argument);
  EXPECT_THROW((void)view.first_unexplored_slot(3), std::invalid_argument);
}

TEST(LocalViewWeak, SlotAtOrPastDegreeRejected) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
  EXPECT_THROW((void)view.request_edge({0, 1}), std::invalid_argument);
  ASSERT_EQ(view.request_edge({0, 0}), 1u);
  EXPECT_THROW((void)view.request_edge({1, 2}), std::invalid_argument);
  EXPECT_THROW(
      (void)view.request_edge({1, std::numeric_limits<std::uint32_t>::max()}),
      std::invalid_argument);
  // A rejected request is no probe: nothing counted, nothing revealed.
  EXPECT_EQ(view.raw_requests(), 1u);
  EXPECT_EQ(view.requests(), 1u);
  EXPECT_FALSE(view.is_known(2));
}

TEST(LocalViewWeak, RepeatRequestsAreFree) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
  (void)view.request_edge({0, 0});
  (void)view.request_edge({0, 0});
  (void)view.request_edge({1, 0});  // same edge from the other side
  EXPECT_EQ(view.requests(), 1u);
  EXPECT_EQ(view.raw_requests(), 3u);
}

TEST(LocalViewWeak, FirstUnexploredAdvances) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  const Graph g = b.build();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 2, ws);
  EXPECT_EQ(view.first_unexplored_slot(0), std::optional<std::uint32_t>(0));
  (void)view.request_edge({0, 0});
  EXPECT_EQ(view.first_unexplored_slot(0), std::optional<std::uint32_t>(1));
  EXPECT_FALSE(view.vertex_requested(0));
  (void)view.request_edge({0, 1});
  EXPECT_FALSE(view.first_unexplored_slot(0).has_value());
  EXPECT_TRUE(view.vertex_requested(0));
}

TEST(LocalViewWeak, TargetFoundOnReveal) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 2, ws);
  (void)view.request_edge({0, 0});
  EXPECT_FALSE(view.target_found());
  (void)view.request_edge({1, 1});
  EXPECT_TRUE(view.target_found());
}

TEST(LocalViewWeak, DiscoveryPathIsGraphPath) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
  (void)view.request_edge({0, 0});
  (void)view.request_edge({1, 1});
  (void)view.request_edge({2, 1});
  ASSERT_TRUE(view.target_found());
  const auto path = view.discovery_path();
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 3u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
  }
}

TEST(LocalViewWeak, DiscoveryPathEmptyBeforeFound) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
  EXPECT_TRUE(view.discovery_path().empty());
}

TEST(LocalViewWeak, StrongRequestRejected) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
  EXPECT_THROW((void)view.request_vertex_span(0), std::invalid_argument);
}

TEST(LocalViewWeak, SelfLoopReveal) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  const Graph g = b.build();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 1, ws);
  EXPECT_EQ(view.request_edge({0, 0}), 0u);  // loop reveals itself
  EXPECT_EQ(view.requests(), 1u);
  EXPECT_FALSE(view.target_found());
}

TEST(LocalViewWeak, DiscovererTracksFirstReveal) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  const Graph g = b.build();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 2, ws);
  (void)view.request_edge({0, 0});  // reveal 1 via 0
  (void)view.request_edge({1, 1});  // reveal 2 via 1
  EXPECT_EQ(view.discoverer(1), 0u);
  EXPECT_EQ(view.discoverer(2), 1u);
  EXPECT_EQ(view.discoverer(0), kNoVertex);
  // Revealing 2 again via the direct edge must not change its discoverer.
  (void)view.request_edge({0, 1});
  EXPECT_EQ(view.discoverer(2), 1u);
}

// ----------------------------------------------------------------- strong

TEST(LocalViewStrong, RequestOpensAllEdges) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kStrong, 1, 3, ws);
  const auto neighbors = view.request_vertex_span(1);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_TRUE(view.is_known(0));
  EXPECT_TRUE(view.is_known(2));
  EXPECT_EQ(view.requests(), 1u);
}

TEST(LocalViewStrong, ChainToTarget) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kStrong, 0, 3, ws);
  (void)view.request_vertex_span(0);
  EXPECT_FALSE(view.target_found());
  (void)view.request_vertex_span(1);
  EXPECT_FALSE(view.target_found());
  (void)view.request_vertex_span(2);
  EXPECT_TRUE(view.target_found());
  EXPECT_EQ(view.requests(), 3u);
}

TEST(LocalViewStrong, UnknownVertexNotRequestable) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kStrong, 0, 3, ws);
  EXPECT_THROW((void)view.request_vertex_span(2), std::invalid_argument);
}

TEST(LocalViewStrong, RepeatRequestsFree) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kStrong, 0, 3, ws);
  (void)view.request_vertex_span(0);
  (void)view.request_vertex_span(0);
  EXPECT_EQ(view.requests(), 1u);
  EXPECT_EQ(view.raw_requests(), 2u);
  EXPECT_TRUE(view.vertex_requested(0));
  EXPECT_FALSE(view.vertex_requested(1));
}

TEST(LocalViewStrong, FirstUnexploredSlotIsWeakOnly) {
  // A strong request explores no single edge, so a strong view keeps no
  // explored stamps or slot cursors to answer from.
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kStrong, 0, 3, ws);
  EXPECT_THROW((void)view.first_unexplored_slot(0), std::invalid_argument);
  (void)view.request_vertex_span(0);
  EXPECT_THROW((void)view.first_unexplored_slot(1), std::invalid_argument);
}

TEST(LocalViewStrong, WeakRequestRejected) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kStrong, 0, 3, ws);
  EXPECT_THROW((void)view.request_edge({0, 0}), std::invalid_argument);
}

TEST(LocalViewStrong, DiscoveryPathValid) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kStrong, 0, 3, ws);
  (void)view.request_vertex_span(0);
  (void)view.request_vertex_span(1);
  (void)view.request_vertex_span(2);
  const auto path = view.discovery_path();
  ASSERT_EQ(path.size(), 4u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
  }
}

TEST(LocalViewStrong, NeighborsIncludeMultiplicity) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  const Graph g = b.build();
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kStrong, 0, 1, ws);
  const auto neighbors = view.request_vertex_span(0);
  EXPECT_EQ(neighbors.size(), 2u);
}

TEST(LocalView, NumVerticesExposed) {
  const Graph g = path4();
  SearchWorkspace ws;
  const LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
  EXPECT_EQ(view.num_vertices(), 4u);
}

TEST(LocalView, EndpointRangeChecked) {
  const Graph g = path4();
  SearchWorkspace ws;
  EXPECT_THROW(LocalView(g, KnowledgeModel::kWeak, 4, 0, ws),
               std::invalid_argument);
  EXPECT_THROW(LocalView(g, KnowledgeModel::kWeak, 0, 7, ws),
               std::invalid_argument);
}

// ------------------------------------------------------- epoch wraparound

// Regression test for the stamp-wraparound guard in begin_run: after
// ~2^32 runs the epoch counter wraps, and stamps written by ancient runs
// would alias the fresh epoch unless the arrays are re-zeroed. Simulated
// via SearchWorkspace::debug_fast_forward_epoch instead of 2^32 real runs.
TEST(SearchWorkspaceEpoch, WrapRezeroesStaleStamps) {
  const Graph g = path4();
  SearchWorkspace ws;
  {
    // Run at epoch 1: reveal vertex 1 so known/explored stamps hold 1.
    LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
    ASSERT_EQ(ws.debug_epoch(), 1u);
    (void)view.request_edge({0, 0});
    ASSERT_TRUE(view.is_known(1));
  }
  ws.debug_fast_forward_epoch(std::numeric_limits<std::uint32_t>::max());
  // The next run wraps the counter back to epoch 1 — the exact value the
  // stale stamps still hold. Without the re-zeroing guard, vertex 1 and
  // edge 0 would leak into this run as spuriously known/explored.
  LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
  EXPECT_EQ(ws.debug_epoch(), 1u);
  EXPECT_FALSE(view.is_known(1));
  EXPECT_EQ(view.first_unexplored_slot(0), std::optional<std::uint32_t>(0));
  ASSERT_EQ(view.known_vertices().size(), 1u);
  EXPECT_EQ(view.known_vertices()[0], 0u);
  // And the post-wrap run behaves like any other.
  EXPECT_EQ(view.request_edge({0, 0}), 1u);
  EXPECT_TRUE(view.is_known(1));
  EXPECT_EQ(view.requests(), 1u);
}

// The strong twin of the test above: a requested stamp from before the
// wrap must not make the vertex look requested after it.
TEST(SearchWorkspaceEpoch, WrapRezeroesStaleRequestedStamps) {
  const Graph g = path4();
  SearchWorkspace ws;
  {
    LocalView view(g, KnowledgeModel::kStrong, 0, 3, ws);
    ASSERT_EQ(ws.debug_epoch(), 1u);
    (void)view.request_vertex_span(0);
    ASSERT_TRUE(view.vertex_requested(0));
  }
  ws.debug_fast_forward_epoch(std::numeric_limits<std::uint32_t>::max());
  LocalView view(g, KnowledgeModel::kStrong, 0, 3, ws);
  EXPECT_EQ(ws.debug_epoch(), 1u);
  EXPECT_FALSE(view.vertex_requested(0));
  (void)view.request_vertex_span(0);
  EXPECT_EQ(view.requests(), 1u);
  EXPECT_TRUE(view.is_known(1));
}

TEST(SearchWorkspaceEpoch, SurvivesRunsStraddlingTheWrap) {
  const Graph g = path4();
  SearchWorkspace ws;
  ws.debug_fast_forward_epoch(std::numeric_limits<std::uint32_t>::max() - 1);
  for (int run = 0; run < 4; ++run) {
    LocalView view(g, KnowledgeModel::kStrong, 0, 3, ws);
    EXPECT_FALSE(view.is_known(1)) << "run " << run;
    (void)view.request_vertex_span(0);
    EXPECT_TRUE(view.is_known(1)) << "run " << run;
    EXPECT_EQ(view.requests(), 1u) << "run " << run;
  }
}

TEST(SearchWorkspaceEpoch, FastForwardIsForwardOnly) {
  SearchWorkspace ws;
  ws.debug_fast_forward_epoch(100u);
  EXPECT_EQ(ws.debug_epoch(), 100u);
  EXPECT_THROW(ws.debug_fast_forward_epoch(99u), std::invalid_argument);
}

// ------------------------------------------------ one workspace, two models

// A run's SearchResult and the view's known order at its end.
struct Outcome {
  sfs::search::SearchResult result;
  std::vector<VertexId> known;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

// Runs `spec` from 0 to the newest vertex twice on `ws`: through the
// runner, and through a hand copy of the runner's static loop that keeps
// the view to read its known order.
Outcome run_policy(const Graph& g, const sfs::search::PolicySpec& spec,
                   SearchWorkspace& ws) {
  const auto target = static_cast<VertexId>(g.num_vertices() - 1);
  const sfs::search::RunBudget budget{.max_raw_requests =
                                          50 * g.num_vertices()};
  Outcome out;
  {
    LocalView view(g, spec.model, 0, target, ws);
    sfs::rng::Rng rng(11);
    // Stepped through the model's own interface, the one model() names.
    const auto searcher = spec.make();
    const bool weak = searcher->model() == KnowledgeModel::kWeak;
    auto* const weak_searcher =
        weak ? static_cast<sfs::search::WeakSearcher*>(searcher.get())
             : nullptr;
    auto* const strong_searcher =
        weak ? nullptr
             : static_cast<sfs::search::StrongSearcher*>(searcher.get());
    if (weak) {
      weak_searcher->start(view, rng);
    } else {
      strong_searcher->start(view, rng);
    }
    while (!view.target_found() &&
           view.raw_requests() < budget.max_raw_requests) {
      if (weak) {
        const auto req = weak_searcher->next(view, rng);
        if (!req) break;
        weak_searcher->observe(view, *req, view.request_edge(*req));
      } else {
        const auto u = strong_searcher->next(view, rng);
        if (!u) break;
        (void)view.request_vertex_span(*u);
      }
    }
    out.known.assign(view.known_vertices().begin(),
                     view.known_vertices().end());
  }
  sfs::rng::Rng rng(11);
  out.result =
      sfs::search::run_search(g, 0, target, *spec.make(), rng, budget, ws);
  return out;
}

// Each model sizes only the arrays it maintains, so one workspace that
// serves both models holds arrays of different sizes and stamps of
// different ages. Every policy of both models, interleaved on one
// workspace over a smaller graph, a larger one and across the stamp
// wrap, must give what a fresh workspace gives.
TEST(SearchWorkspaceModels, InterleavedRunsMatchFreshWorkspaces) {
  std::vector<const sfs::search::PolicySpec*> weak;
  std::vector<const sfs::search::PolicySpec*> strong;
  for (const auto& spec : sfs::search::all_policies()) {
    (spec.model == KnowledgeModel::kWeak ? weak : strong).push_back(&spec);
  }
  ASSERT_FALSE(weak.empty());
  ASSERT_FALSE(strong.empty());
  // Weak and strong alternate, starting with `first`'s model.
  const auto interleaved = [&](KnowledgeModel first) {
    const auto& a = first == KnowledgeModel::kWeak ? weak : strong;
    const auto& b = first == KnowledgeModel::kWeak ? strong : weak;
    std::vector<const sfs::search::PolicySpec*> out;
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      if (i < a.size()) out.push_back(a[i]);
      if (i < b.size()) out.push_back(b[i]);
    }
    return out;
  };
  sfs::rng::Rng small_rng(3);
  const Graph small =
      sfs::gen::merged_mori_graph(60, 2, sfs::gen::MoriParams{0.5}, small_rng);
  sfs::rng::Rng large_rng(4);
  const Graph large =
      sfs::gen::merged_mori_graph(400, 2, sfs::gen::MoriParams{0.5}, large_rng);

  SearchWorkspace ws;
  std::size_t runs = 0;
  const auto check = [&](const Graph& g, KnowledgeModel first,
                         const char* phase) {
    for (const auto* spec : interleaved(first)) {
      SearchWorkspace fresh;
      EXPECT_EQ(run_policy(g, *spec, ws), run_policy(g, *spec, fresh))
          << phase << " " << spec->name;
      ++runs;
    }
  };
  check(small, KnowledgeModel::kWeak, "small");
  check(large, KnowledgeModel::kStrong, "large");
  // Each policy takes two epochs on `ws`, so the wrap falls inside the
  // next pass, between its first strong policy and its second weak one.
  ws.debug_fast_forward_epoch(std::numeric_limits<std::uint32_t>::max() - 4);
  check(large, KnowledgeModel::kWeak, "large across the wrap");
  EXPECT_LT(ws.debug_epoch(), 100u);  // the counter wrapped
  check(small, KnowledgeModel::kStrong, "small after the wrap");
  EXPECT_EQ(runs, 4 * (weak.size() + strong.size()));
}

// ------------------------------------------------------- liveness masks

// path4 masks: all alive unless flipped.
struct Masks {
  std::vector<std::uint8_t> v;
  std::vector<std::uint8_t> e;
  explicit Masks(const Graph& g)
      : v(g.num_vertices(), 1u), e(g.num_edges(), 1u) {}
  [[nodiscard]] LivenessView view() const { return {v, e}; }
};

TEST(LocalViewLiveness, EmptyMaskMatchesStaticBehavior) {
  const Graph g = path4();
  SearchWorkspace ws;
  LocalView masked(g, KnowledgeModel::kWeak, 0, 3, ws, LivenessView{});
  EXPECT_EQ(masked.request_edge({0, 0}), 1u);
  EXPECT_EQ(masked.failed_requests(), 0u);
}

TEST(LocalViewLiveness, WeakProbeOfDeadEdgeFails) {
  const Graph g = path4();
  Masks m(g);
  m.e[0] = 0;  // link 0-1 failed
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws, m.view());
  EXPECT_EQ(view.request_edge({0, 0}), kNoVertex);
  EXPECT_FALSE(view.is_known(1));
  EXPECT_EQ(view.failed_requests(), 1u);
  EXPECT_EQ(view.raw_requests(), 1u);
  EXPECT_EQ(view.requests(), 0u);  // failures are never charged
  // The dead link is marked explored so policies stop offering it...
  EXPECT_FALSE(view.first_unexplored_slot(0).has_value());
  EXPECT_TRUE(view.vertex_requested(0));
  // ...and re-probing it stays a failure, not a cached success.
  EXPECT_EQ(view.request_edge({0, 0}), kNoVertex);
  EXPECT_EQ(view.failed_requests(), 2u);
  EXPECT_EQ(view.requests(), 0u);
}

TEST(LocalViewLiveness, WeakProbeOfDepartedEndpointFails) {
  const Graph g = path4();
  Masks m(g);
  m.v[1] = 0;  // peer 1 departed; edge 0 itself still "up"
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kWeak, 0, 2, ws, m.view());
  EXPECT_EQ(view.request_edge({0, 0}), kNoVertex);
  EXPECT_FALSE(view.is_known(1));
  EXPECT_EQ(view.failed_requests(), 1u);
  EXPECT_FALSE(view.first_unexplored_slot(0).has_value());
}

TEST(LocalViewLiveness, StrongRequestOfDepartedVertexFails) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  const Graph g = b.build();
  Masks m(g);
  m.v[1] = 0;
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kStrong, 0, 3, ws, m.view());
  // Opening 0 over live edges still lists departed neighbor 1: routing
  // tables are stale, identities leak before liveness does.
  (void)view.request_vertex_span(0);
  ASSERT_TRUE(view.is_known(1));
  const auto dead = view.request_vertex_span(1);
  EXPECT_TRUE(dead.empty());
  EXPECT_EQ(view.failed_requests(), 1u);
  EXPECT_EQ(view.requests(), 1u);  // only the live open was charged
  EXPECT_FALSE(view.is_known(3));
  // The failed vertex is marked requested so policies skip it.
  EXPECT_TRUE(view.vertex_requested(1));
}

TEST(LocalViewLiveness, StrongOpenSkipsDeadEdgeSlots) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  const Graph g = b.build();
  Masks m(g);
  m.e[1] = 0;  // link 0-2 failed; vertex 2 alive but unreachable via it
  SearchWorkspace ws;
  LocalView view(g, KnowledgeModel::kStrong, 0, 2, ws, m.view());
  (void)view.request_vertex_span(0);
  EXPECT_TRUE(view.is_known(1));
  EXPECT_FALSE(view.is_known(2));  // endpoint behind a dead link invisible
  EXPECT_FALSE(view.target_found());
}

TEST(LocalViewLiveness, CtorRejectsDeadEndpointsAndBadMaskSizes) {
  const Graph g = path4();
  Masks m(g);
  SearchWorkspace ws;
  m.v[0] = 0;
  EXPECT_THROW(LocalView(g, KnowledgeModel::kWeak, 0, 3, ws, m.view()),
               std::invalid_argument);
  m.v[0] = 1;
  m.v[3] = 0;
  EXPECT_THROW(LocalView(g, KnowledgeModel::kWeak, 0, 3, ws, m.view()),
               std::invalid_argument);
  const std::vector<std::uint8_t> short_mask(2, 1u);
  EXPECT_THROW(LocalView(g, KnowledgeModel::kWeak, 0, 3, ws,
                         LivenessView{short_mask, {}}),
               std::invalid_argument);
  EXPECT_THROW(LocalView(g, KnowledgeModel::kWeak, 0, 3, ws,
                         LivenessView{{}, short_mask}),
               std::invalid_argument);
}

}  // namespace

// Tests for the Cooper–Frieze evolving graph model.
#include "gen/cooper_frieze.hpp"

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/degree.hpp"

namespace {

using sfs::gen::cooper_frieze;
using sfs::gen::CooperFriezeParams;
using sfs::gen::CooperFriezeProcess;
using sfs::gen::Preference;
using sfs::graph::VertexId;
using sfs::rng::Rng;

CooperFriezeParams defaults() { return CooperFriezeParams{}; }

TEST(CooperFriezeParams, ValidateAcceptsDefaults) {
  EXPECT_NO_THROW(defaults().validate());
}

TEST(CooperFriezeParams, RejectsAlphaExtremes) {
  auto p = defaults();
  p.alpha = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.alpha = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(CooperFriezeParams, RejectsBadProbabilities) {
  auto p = defaults();
  p.beta = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = defaults();
  p.gamma = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(CooperFriezeParams, RejectsBadCountDistributions) {
  auto p = defaults();
  p.q = {};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = defaults();
  p.p = {0.0, 0.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = defaults();
  p.q = {1.0, -1.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(CooperFrieze, ReachesRequestedVertexCount) {
  Rng rng(1);
  const auto out = cooper_frieze(300, defaults(), rng);
  EXPECT_EQ(out.graph.num_vertices(), 300u);
  EXPECT_EQ(out.birth_order.size(), 300u);
  EXPECT_GE(out.steps, 299u);  // at least one step per added vertex
}

TEST(CooperFrieze, ConnectedByConstruction) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    const auto out = cooper_frieze(200, defaults(), rng);
    EXPECT_TRUE(sfs::graph::is_connected(out.graph)) << "seed " << seed;
  }
}

TEST(CooperFrieze, StepCountRoughlyVerticesOverAlpha) {
  auto params = defaults();
  params.alpha = 0.25;
  Rng rng(2);
  const auto out = cooper_frieze(500, params, rng);
  const double expected = 500.0 / 0.25;
  EXPECT_GT(static_cast<double>(out.steps), 0.7 * expected);
  EXPECT_LT(static_cast<double>(out.steps), 1.3 * expected);
}

TEST(CooperFrieze, EdgeCountMatchesStepsForUnitDistributions) {
  // With p = q = {1}, every step adds exactly one edge (plus the seed loop).
  Rng rng(3);
  const auto out = cooper_frieze(100, defaults(), rng);
  EXPECT_EQ(out.graph.num_edges(), out.steps + 1);
}

TEST(CooperFrieze, MultiEdgeDistributions) {
  auto params = defaults();
  params.q = {0.0, 0.0, 1.0};  // NEW vertices emit exactly 3 edges
  params.p = {0.0, 1.0};       // OLD steps emit exactly 2 edges
  Rng rng(4);
  const auto out = cooper_frieze(100, params, rng);
  // Every NEW step adds 3 edges; at least 99 NEW steps happened.
  EXPECT_GE(out.graph.num_edges(), 99u * 3u);
  // New vertices have out-degree 3.
  std::size_t outdeg3 = 0;
  for (VertexId v = 1; v < out.graph.num_vertices(); ++v) {
    if (out.graph.out_degree(v) >= 3) ++outdeg3;
  }
  EXPECT_EQ(outdeg3, 99u);
}

TEST(CooperFrieze, SeedLoopPresent) {
  Rng rng(5);
  const auto out = cooper_frieze(50, defaults(), rng);
  EXPECT_TRUE(out.graph.edge(0).is_loop());
  EXPECT_EQ(out.graph.edge(0).tail, 0u);
}

TEST(CooperFriezeProcess, LastHeadsTracksEmittedEdges) {
  Rng rng(7);
  CooperFriezeProcess proc(defaults());
  const std::size_t edges_before = proc.graph().num_edges();
  (void)proc.step(rng);
  EXPECT_EQ(proc.graph().num_edges(), edges_before + proc.last_heads().size());
}

TEST(CooperFriezeProcess, LastTailIsNewVertexOnNewSteps) {
  Rng rng(8);
  CooperFriezeProcess proc(defaults());
  for (int i = 0; i < 50; ++i) {
    const std::size_t before = proc.num_vertices();
    const bool was_new = proc.step(rng);
    if (was_new) {
      EXPECT_EQ(proc.num_vertices(), before + 1);
      EXPECT_EQ(proc.last_tail(), static_cast<VertexId>(before));
    } else {
      EXPECT_EQ(proc.num_vertices(), before);
      EXPECT_LT(proc.last_tail(), static_cast<VertexId>(before));
    }
  }
}

TEST(CooperFriezeProcess, HeadsAreExistingVertices) {
  Rng rng(9);
  CooperFriezeProcess proc(defaults());
  for (int i = 0; i < 200; ++i) {
    (void)proc.step(rng);
    for (const VertexId h : proc.last_heads()) {
      EXPECT_LT(h, proc.num_vertices());
    }
  }
}

TEST(CooperFrieze, NewVertexNeverSelfLoopsImmediately) {
  // NEW terminals are drawn among pre-existing vertices only.
  Rng rng(10);
  const auto out = cooper_frieze(300, defaults(), rng);
  for (const auto& e : out.graph.edges()) {
    if (e.is_loop()) {
      // Only the seed loop is possible from NEW steps; OLD steps may create
      // loops via preferential re-selection of the tail.
      continue;
    }
  }
  SUCCEED();
}

class CfPreference : public ::testing::TestWithParam<Preference> {};

TEST_P(CfPreference, HighAlphaGrowsFast) {
  auto params = defaults();
  params.alpha = 0.9;
  params.preference = GetParam();
  Rng rng(11);
  const auto out = cooper_frieze(400, params, rng);
  EXPECT_EQ(out.graph.num_vertices(), 400u);
  EXPECT_TRUE(sfs::graph::is_connected(out.graph));
}

TEST_P(CfPreference, PurePreferentialSkewsDegrees) {
  // beta = gamma = 0 (always preferential): expect a heavy hub; beta =
  // gamma = 1 (always uniform): much flatter.
  auto pref = defaults();
  pref.beta = 0.0;
  pref.gamma = 0.0;
  pref.preference = GetParam();
  auto unif = defaults();
  unif.beta = 1.0;
  unif.gamma = 1.0;
  unif.preference = GetParam();
  Rng r1(12);
  Rng r2(12);
  const auto skewed = cooper_frieze(2000, pref, r1);
  const auto flat = cooper_frieze(2000, unif, r2);
  const auto dmax_skewed = sfs::graph::max_degree(
      skewed.graph, sfs::graph::DegreeKind::kUndirected);
  const auto dmax_flat =
      sfs::graph::max_degree(flat.graph, sfs::graph::DegreeKind::kUndirected);
  EXPECT_GT(dmax_skewed, 2 * dmax_flat);
}

INSTANTIATE_TEST_SUITE_P(Preferences, CfPreference,
                         ::testing::Values(Preference::kInDegree,
                                           Preference::kTotalDegree));

TEST(CooperFrieze, DeterministicForSeed) {
  Rng a(13);
  Rng b(13);
  const auto g1 = cooper_frieze(150, defaults(), a);
  const auto g2 = cooper_frieze(150, defaults(), b);
  ASSERT_EQ(g1.graph.num_edges(), g2.graph.num_edges());
  for (sfs::graph::EdgeId e = 0; e < g1.graph.num_edges(); ++e) {
    EXPECT_EQ(g1.graph.edge(e).tail, g2.graph.edge(e).tail);
    EXPECT_EQ(g1.graph.edge(e).head, g2.graph.edge(e).head);
  }
}

}  // namespace

// Tests for the Móri tree and merged Móri graph — structural invariants,
// degenerate parameter values, and the exact attachment law.
#include "gen/mori.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/degree.hpp"
#include "rng/stream_audit.hpp"

namespace {

using sfs::gen::fathers;
using sfs::gen::merge_consecutive;
using sfs::gen::merged_mori_graph;
using sfs::gen::mori_tree;
using sfs::gen::MoriParams;
using sfs::gen::MoriProcess;
using sfs::graph::Graph;
using sfs::graph::kNoVertex;
using sfs::graph::VertexId;
using sfs::rng::Rng;

class MoriInvariants : public ::testing::TestWithParam<double> {};

TEST_P(MoriInvariants, IsRecursiveTree) {
  Rng rng(11);
  const Graph g = mori_tree(500, MoriParams{GetParam()}, rng);
  EXPECT_EQ(g.num_vertices(), 500u);
  EXPECT_EQ(g.num_edges(), 499u);
  EXPECT_TRUE(sfs::graph::is_tree(g));
  // Every non-root vertex has exactly one out-edge, to an older vertex.
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.out_degree(v), 1u);
  }
  EXPECT_EQ(g.out_degree(0), 0u);
  for (const auto& e : g.edges()) EXPECT_LT(e.head, e.tail);
}

TEST_P(MoriInvariants, FathersAccessorConsistent) {
  Rng rng(13);
  const Graph g = mori_tree(200, MoriParams{GetParam()}, rng);
  const auto f = fathers(g);
  EXPECT_EQ(f[0], kNoVertex);
  for (VertexId v = 1; v < 200; ++v) {
    EXPECT_LT(f[v], v);
    EXPECT_TRUE(g.has_edge(v, f[v]));
  }
}

TEST_P(MoriInvariants, DeterministicForSeed) {
  Rng a(17);
  Rng b(17);
  const Graph g1 = mori_tree(100, MoriParams{GetParam()}, a);
  const Graph g2 = mori_tree(100, MoriParams{GetParam()}, b);
  for (sfs::graph::EdgeId e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edge(e).head, g2.edge(e).head);
  }
}

INSTANTIATE_TEST_SUITE_P(PSweep, MoriInvariants,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

TEST(Mori, PEqualsOneIsStar) {
  // With pure indegree preference only vertex 1 (internal 0) ever has
  // positive weight, so every vertex attaches to the root.
  Rng rng(19);
  const Graph g = mori_tree(300, MoriParams{1.0}, rng);
  for (VertexId v = 1; v < 300; ++v) {
    EXPECT_EQ(fathers(g)[v], 0u);
  }
  EXPECT_EQ(g.degree(0), 299u);
}

TEST(Mori, PZeroIsUniformRecursiveTree) {
  // Under p = 0 the father of vertex t is uniform over [0, t-1): check the
  // father of vertex 3 (internal id 2, choosing among 2 vertices).
  int chose_root = 0;
  constexpr int kReps = 20000;
  for (int rep = 0; rep < kReps; ++rep) {
    Rng rng(sfs::rng::audited_stream_seed(
        23, 0, static_cast<std::uint64_t>(rep)));
    MoriProcess proc((MoriParams{0.0}));
    (void)proc.step(rng);
    if (proc.all_fathers()[2] == 0u) ++chose_root;
  }
  EXPECT_NEAR(static_cast<double>(chose_root) / kReps, 0.5, 0.01);
}

class MoriAttachmentLaw : public ::testing::TestWithParam<double> {};

TEST_P(MoriAttachmentLaw, VertexThreeExactLaw) {
  // At t = 3: weights are 1 for vertex 1 and (1-p) for vertex 2, so
  // P(N_3 = 1) = 1 / (2 - p) exactly.
  const double p = GetParam();
  int chose_one = 0;
  constexpr int kReps = 40000;
  for (int rep = 0; rep < kReps; ++rep) {
    Rng rng(sfs::rng::audited_stream_seed(
        29, 0, static_cast<std::uint64_t>(rep)));
    MoriProcess proc((MoriParams{p}));
    (void)proc.step(rng);
    if (proc.all_fathers()[2] == 0u) ++chose_one;
  }
  EXPECT_NEAR(static_cast<double>(chose_one) / kReps, 1.0 / (2.0 - p), 0.01)
      << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(PSweep, MoriAttachmentLaw,
                         ::testing::Values(0.2, 0.5, 0.8));

TEST(MoriProcess, StartsAtTimeTwo) {
  MoriProcess proc((MoriParams{0.5}));
  EXPECT_EQ(proc.size(), 2u);
  EXPECT_EQ(proc.all_fathers()[0], kNoVertex);
  EXPECT_EQ(proc.all_fathers()[1], 0u);
  EXPECT_EQ(proc.in_degree(0), 1u);
  EXPECT_EQ(proc.in_degree(1), 0u);
}

TEST(MoriProcess, StepReturnsFather) {
  Rng rng(31);
  MoriProcess proc((MoriParams{0.5}));
  const VertexId f = proc.step(rng);
  EXPECT_LT(f, 2u);
  EXPECT_EQ(proc.all_fathers()[2], f);
  EXPECT_EQ(proc.size(), 3u);
}

TEST(MoriProcess, InDegreesSumToEdges) {
  Rng rng(37);
  MoriProcess proc((MoriParams{0.6}));
  proc.grow_to(150, rng);
  std::size_t total = 0;
  for (VertexId v = 0; v < 150; ++v) total += proc.in_degree(v);
  EXPECT_EQ(total, 149u);
}

TEST(MoriProcess, GraphMatchesProcess) {
  Rng rng(41);
  MoriProcess proc((MoriParams{0.3}));
  proc.grow_to(60, rng);
  const Graph g = proc.graph();
  for (VertexId v = 0; v < 60; ++v) {
    EXPECT_EQ(g.in_degree(v), proc.in_degree(v));
  }
}

TEST(Mori, MaxDegreeGrowsWithP) {
  // Coarse check of Móri's t^p law: larger p -> markedly larger max degree.
  Rng rng(43);
  const Graph low = mori_tree(4000, MoriParams{0.2}, rng);
  const Graph high = mori_tree(4000, MoriParams{0.9}, rng);
  const auto dmax_low =
      sfs::graph::max_degree(low, sfs::graph::DegreeKind::kUndirected);
  const auto dmax_high =
      sfs::graph::max_degree(high, sfs::graph::DegreeKind::kUndirected);
  EXPECT_GT(dmax_high, 3 * dmax_low);
}

TEST(MergeConsecutive, ContractsGroups) {
  // Tree: 1-0, 2-0, 3-1 (internal ids), merge m=2: groups {0,1}, {2,3}.
  sfs::graph::GraphBuilder b(4);
  b.add_edge(1, 0);
  b.add_edge(2, 0);
  b.add_edge(3, 1);
  const Graph merged = merge_consecutive(b.build(), 2);
  EXPECT_EQ(merged.num_vertices(), 2u);
  EXPECT_EQ(merged.num_edges(), 3u);
  // Edge 1->0 becomes a self-loop at merged vertex 0.
  EXPECT_TRUE(merged.edge(0).is_loop());
  EXPECT_EQ(merged.edge(1).tail, 1u);
  EXPECT_EQ(merged.edge(1).head, 0u);
}

TEST(MergeConsecutive, RejectsIndivisible) {
  sfs::graph::GraphBuilder b(3);
  EXPECT_THROW((void)merge_consecutive(b.build(), 2), std::invalid_argument);
}

TEST(MergeConsecutive, IdentityForMOne) {
  Rng rng(47);
  const Graph g = mori_tree(50, MoriParams{0.5}, rng);
  const Graph m = merge_consecutive(g, 1);
  EXPECT_EQ(m.num_vertices(), g.num_vertices());
  EXPECT_EQ(m.num_edges(), g.num_edges());
}

class MergedMori : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MergedMori, CountsAndConnectivity) {
  const std::size_t m = GetParam();
  Rng rng(53);
  const Graph g = merged_mori_graph(200, m, MoriParams{0.5}, rng);
  EXPECT_EQ(g.num_vertices(), 200u);
  EXPECT_EQ(g.num_edges(), 200 * m - 1);
  EXPECT_TRUE(sfs::graph::is_connected(g));
}

INSTANTIATE_TEST_SUITE_P(MSweep, MergedMori, ::testing::Values(1u, 2u, 3u, 5u));

TEST(MergedMori, DegreeIsAtLeastM) {
  // Each merged vertex absorbs m tree vertices, each with >= 1 incident
  // edge, so merged degree >= m (except possibly reduced by nothing: loops
  // still count twice).
  Rng rng(59);
  const std::size_t m = 4;
  const Graph g = merged_mori_graph(100, m, MoriParams{0.5}, rng);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(g.degree(v), m) << "vertex " << v;
  }
}

TEST(Mori, Preconditions) {
  Rng rng(61);
  EXPECT_THROW((void)mori_tree(1, MoriParams{0.5}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)mori_tree(10, MoriParams{1.5}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)merged_mori_graph(0, 2, MoriParams{0.5}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)merged_mori_graph(1, 1, MoriParams{0.5}, rng),
               std::invalid_argument);
}

TEST(Fathers, RejectsNonRecursiveTrees) {
  sfs::graph::GraphBuilder b(3);
  b.add_edge(0, 1);  // edge toward a younger vertex
  b.add_edge(2, 1);
  EXPECT_THROW((void)fathers(b.build()), std::invalid_argument);

  sfs::graph::GraphBuilder c(3);
  c.add_edge(1, 0);
  c.add_edge(1, 0);  // vertex 1 has two out-edges; vertex 2 none
  EXPECT_THROW((void)fathers(c.build()), std::invalid_argument);
}

}  // namespace

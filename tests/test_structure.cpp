// Tests for k-core decomposition and correlation measures.
#include "graph/structure.hpp"

#include <gtest/gtest.h>

#include "gen/barabasi_albert.hpp"
#include "gen/config_model.hpp"
#include "gen/mori.hpp"
#include "graph/builder.hpp"

namespace {

using sfs::gen::mori_tree;
using sfs::graph::age_degree_correlation;
using sfs::graph::core_decomposition;
using sfs::graph::degree_assortativity;
using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::VertexId;
using sfs::rng::Rng;

Graph complete_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v) b.add_edge(u, v);
  return b.build();
}

TEST(CoreDecomposition, TreeIsOneCore) {
  Rng rng(1);
  const Graph g = mori_tree(200, sfs::gen::MoriParams{0.5}, rng);
  const auto core = core_decomposition(g);
  EXPECT_EQ(core.degeneracy, 1u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(core.core_number[v], 1u);
  }
  // Leaves are exactly the 1-core boundary; every vertex in a tree with
  // n >= 2 has core number 1.
  EXPECT_EQ(core.core_members(1).size(), g.num_vertices());
}

TEST(CoreDecomposition, CompleteGraph) {
  const Graph g = complete_graph(6);
  const auto core = core_decomposition(g);
  EXPECT_EQ(core.degeneracy, 5u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(core.core_number[v], 5u);
}

TEST(CoreDecomposition, TriangleWithPendant) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(3, 0);
  const auto core = core_decomposition(b.build());
  EXPECT_EQ(core.core_number[0], 2u);
  EXPECT_EQ(core.core_number[1], 2u);
  EXPECT_EQ(core.core_number[2], 2u);
  EXPECT_EQ(core.core_number[3], 1u);
  EXPECT_EQ(core.degeneracy, 2u);
  EXPECT_EQ(core.core_members(2).size(), 3u);
}

TEST(CoreDecomposition, IsolatedVerticesAreZeroCore) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const auto core = core_decomposition(b.build());
  EXPECT_EQ(core.core_number[2], 0u);
}

TEST(CoreDecomposition, EmptyGraph) {
  const auto core = core_decomposition(GraphBuilder(0).build());
  EXPECT_EQ(core.degeneracy, 0u);
  EXPECT_TRUE(core.core_number.empty());
}

TEST(CoreDecomposition, CoreNumberAtMostDegree) {
  Rng rng(2);
  const Graph g = sfs::gen::power_law_configuration_graph(
      2000, sfs::gen::PowerLawSequenceParams{2.3, 1, 0},
      sfs::gen::ConfigModelOptions{false}, rng);
  const auto core = core_decomposition(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(core.core_number[v], g.degree(v));
  }
}

TEST(CoreDecomposition, MonotoneUnderKIncrease) {
  Rng rng(3);
  const Graph g = sfs::gen::barabasi_albert(
      1000, sfs::gen::BarabasiAlbertParams{3}, rng);
  const auto core = core_decomposition(g);
  EXPECT_GE(core.core_members(1).size(), core.core_members(2).size());
  EXPECT_GE(core.core_members(2).size(), core.core_members(3).size());
  // BA with m = 3: every non-seed vertex has degree >= 3, so the 3-core is
  // large.
  EXPECT_GT(core.core_members(3).size(), 500u);
}

TEST(DegreeAssortativity, StarIsDisassortative) {
  GraphBuilder b(6);
  for (VertexId v = 1; v < 6; ++v) b.add_edge(v, 0);
  EXPECT_LT(degree_assortativity(b.build()), -0.99);
}

TEST(DegreeAssortativity, RegularGraphIsDegenerate) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 0);
  EXPECT_DOUBLE_EQ(degree_assortativity(b.build()), 0.0);
}

TEST(DegreeAssortativity, LoopsIgnored) {
  GraphBuilder with_loop(2);
  with_loop.add_edge(0, 0);
  with_loop.add_edge(0, 1);
  // The loop is skipped but still inflates vertex 0's degree: the single
  // counted edge joins degrees (3, 1), which is perfectly disassortative.
  EXPECT_DOUBLE_EQ(degree_assortativity(with_loop.build()), -1.0);
  // All-loop graph: no counted edges, degenerate -> 0.
  GraphBuilder only_loops(1);
  only_loops.add_edge(0, 0);
  EXPECT_DOUBLE_EQ(degree_assortativity(only_loops.build()), 0.0);
}

TEST(DegreeAssortativity, EvolvingGraphsAreDisassortative) {
  // Preferential attachment yields negative degree correlations (young
  // low-degree vertices attach to old hubs).
  Rng rng(4);
  const Graph g = mori_tree(5000, sfs::gen::MoriParams{0.7}, rng);
  EXPECT_LT(degree_assortativity(g), -0.01);
}

TEST(AgeDegreeCorrelation, StronglyNegativeInMori) {
  Rng rng(5);
  const Graph g = mori_tree(5000, sfs::gen::MoriParams{0.7}, rng);
  EXPECT_LT(age_degree_correlation(g), -0.05);
}

TEST(AgeDegreeCorrelation, NearZeroInConfigurationModel) {
  // Configuration-model degrees are assigned independently of the id, so
  // the age correlation the paper highlights is absent.
  Rng rng(6);
  const Graph g = sfs::gen::power_law_configuration_graph(
      5000, sfs::gen::PowerLawSequenceParams{2.5, 1, 0},
      sfs::gen::ConfigModelOptions{false}, rng);
  EXPECT_NEAR(age_degree_correlation(g), 0.0, 0.05);
}

TEST(AgeDegreeCorrelation, DegenerateGraphs) {
  EXPECT_DOUBLE_EQ(age_degree_correlation(GraphBuilder(1).build()), 0.0);
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  // All degrees equal: zero variance -> 0.
  EXPECT_DOUBLE_EQ(age_degree_correlation(b.build()), 0.0);
}

}  // namespace

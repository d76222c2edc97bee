// Tests for degree sequences and the Molloy–Reed configuration model.
#include "gen/config_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "gen/degree_sequence.hpp"
#include "graph/degree.hpp"
#include "rng/zipf.hpp"

namespace {

using sfs::gen::ConfigModelOptions;
using sfs::gen::configuration_model;
using sfs::gen::power_law_configuration_graph;
using sfs::gen::power_law_degree_sequence;
using sfs::gen::PowerLawSequenceParams;
using sfs::gen::stub_count;
using sfs::graph::Graph;
using sfs::graph::VertexId;
using sfs::rng::Rng;

TEST(PowerLawSequence, EvenStubTotal) {
  Rng rng(1);
  for (int rep = 0; rep < 20; ++rep) {
    const auto seq =
        power_law_degree_sequence(501, PowerLawSequenceParams{2.3, 1, 0}, rng);
    EXPECT_EQ(stub_count(seq) % 2, 0u);
  }
}

TEST(PowerLawSequence, RespectsBounds) {
  Rng rng(2);
  const PowerLawSequenceParams params{2.5, 2, 40};
  const auto seq = power_law_degree_sequence(1000, params, rng);
  for (const auto d : seq) {
    EXPECT_GE(d, 2u);
    EXPECT_LE(d, 41u);  // parity repair may add 1 to one vertex
  }
}

TEST(PowerLawSequence, NaturalCutoffApplied) {
  Rng rng(3);
  const auto seq =
      power_law_degree_sequence(10000, PowerLawSequenceParams{2.5, 1, 0}, rng);
  const auto cutoff = sfs::rng::natural_cutoff(10000, 2.5);
  for (const auto d : seq) EXPECT_LE(d, cutoff + 1);
}

TEST(PowerLawSequence, MeanTracksDistribution) {
  Rng rng(4);
  const sfs::rng::BoundedZipf dist(1, 100, 2.3);
  const auto seq =
      power_law_degree_sequence(50000, PowerLawSequenceParams{2.3, 1, 100},
                                rng);
  double mean = 0.0;
  for (const auto d : seq) mean += d;
  mean /= static_cast<double>(seq.size());
  EXPECT_NEAR(mean, dist.mean(), 0.05 * dist.mean());
}

TEST(PowerLawSequence, Preconditions) {
  Rng rng(5);
  EXPECT_THROW((void)power_law_degree_sequence(
                   1, PowerLawSequenceParams{2.3, 1, 0}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)power_law_degree_sequence(
                   100, PowerLawSequenceParams{0.9, 1, 0}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)power_law_degree_sequence(
                   100, PowerLawSequenceParams{2.3, 5, 4}, rng),
               std::invalid_argument);
  // An infinite exponent would pass "> 1" and give every vertex degree 1.
  EXPECT_THROW(
      (void)power_law_degree_sequence(
          100,
          PowerLawSequenceParams{std::numeric_limits<double>::infinity(), 1,
                                 0},
          rng),
      std::invalid_argument);
}

TEST(ConfigurationModel, RealizesDegreesExactly) {
  const std::vector<std::uint32_t> degrees{3, 2, 2, 1, 1, 1};  // sum 10
  Rng rng(6);
  const Graph g = configuration_model(degrees, ConfigModelOptions{false}, rng);
  EXPECT_EQ(g.num_vertices(), degrees.size());
  EXPECT_EQ(g.num_edges(), 5u);
  for (VertexId v = 0; v < degrees.size(); ++v) {
    EXPECT_EQ(g.degree(v), degrees[v]) << "vertex " << v;
  }
}

TEST(ConfigurationModel, RejectsOddStubTotal) {
  const std::vector<std::uint32_t> degrees{1, 1, 1};
  Rng rng(7);
  EXPECT_THROW(
      (void)configuration_model(degrees, ConfigModelOptions{false}, rng),
      std::invalid_argument);
}

TEST(ConfigurationModel, ErasedVariantIsSimple) {
  Rng rng(8);
  const auto degrees = power_law_degree_sequence(
      2000, PowerLawSequenceParams{2.2, 1, 0}, rng);
  const Graph g = configuration_model(degrees, ConfigModelOptions{true}, rng);
  std::set<std::pair<VertexId, VertexId>> seen;
  for (const auto& e : g.edges()) {
    EXPECT_FALSE(e.is_loop());
    const auto key = std::minmax(e.tail, e.head);
    EXPECT_TRUE(seen.insert(key).second) << "parallel edge";
  }
}

TEST(ConfigurationModel, ErasedDegreesNeverExceedPrescribed) {
  Rng rng(9);
  const auto degrees = power_law_degree_sequence(
      500, PowerLawSequenceParams{2.5, 1, 0}, rng);
  const Graph g = configuration_model(degrees, ConfigModelOptions{true}, rng);
  for (VertexId v = 0; v < degrees.size(); ++v) {
    EXPECT_LE(g.degree(v), degrees[v]);
  }
}

TEST(ConfigurationModel, ZeroDegreeVerticesStayIsolated) {
  const std::vector<std::uint32_t> degrees{2, 0, 2};
  Rng rng(10);
  const Graph g = configuration_model(degrees, ConfigModelOptions{false}, rng);
  EXPECT_EQ(g.degree(1), 0u);
}

TEST(PowerLawConfigurationGraph, EndToEnd) {
  Rng rng(11);
  const Graph g = power_law_configuration_graph(
      3000, PowerLawSequenceParams{2.3, 1, 0}, ConfigModelOptions{false},
      rng);
  EXPECT_EQ(g.num_vertices(), 3000u);
  EXPECT_GT(g.num_edges(), 1500u);
  // Heavy tail present.
  EXPECT_GT(sfs::graph::max_degree(g, sfs::graph::DegreeKind::kUndirected),
            20u);
}

TEST(ConfigurationModel, DeterministicForSeed) {
  const std::vector<std::uint32_t> degrees{2, 2, 2, 2};
  Rng a(12);
  Rng b(12);
  const Graph g1 = configuration_model(degrees, ConfigModelOptions{false}, a);
  const Graph g2 = configuration_model(degrees, ConfigModelOptions{false}, b);
  for (sfs::graph::EdgeId e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edge(e).tail, g2.edge(e).tail);
    EXPECT_EQ(g1.edge(e).head, g2.edge(e).head);
  }
}

}  // namespace

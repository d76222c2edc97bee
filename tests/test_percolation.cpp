// Tests for the Sarshar-style percolation search protocol.
#include "search/percolation.hpp"

#include <gtest/gtest.h>

#include "gen/config_model.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "rng/stream_audit.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::search::percolation_search;
using sfs::search::PercolationParams;

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph power_law_lcc(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const Graph g = sfs::gen::power_law_configuration_graph(
      n, sfs::gen::PowerLawSequenceParams{2.3, 1, 0},
      sfs::gen::ConfigModelOptions{false}, rng);
  return sfs::graph::largest_component(g).graph;
}

TEST(PercolationSearch, FullBroadcastFindsOnConnectedGraph) {
  const Graph g = path_graph(20);
  Rng rng(1);
  const auto r = percolation_search(g, 19, 0,
                                    PercolationParams{0, 0, 1.0}, rng);
  EXPECT_TRUE(r.found);
  EXPECT_GT(r.messages, 0u);
}

TEST(PercolationSearch, ZeroProbabilityFindsOnlyLocally) {
  const Graph g = path_graph(20);
  Rng rng(2);
  const auto r = percolation_search(g, 19, 0,
                                    PercolationParams{0, 0, 0.0}, rng);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.vertices_reached, 1u);
}

TEST(PercolationSearch, RequesterHoldingReplicaSucceedsFree) {
  const Graph g = path_graph(5);
  Rng rng(3);
  const auto r =
      percolation_search(g, 2, 2, PercolationParams{0, 0, 0.0}, rng);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.messages, 0u);
}

TEST(PercolationSearch, ReplicationWalkPlantsReplicas) {
  const Graph g = path_graph(10);
  Rng rng(4);
  // Walk of length 30 on a 10-path covers several vertices.
  const auto r =
      percolation_search(g, 0, 9, PercolationParams{30, 0, 0.0}, rng);
  EXPECT_GT(r.replicas, 1u);
  EXPECT_GE(r.messages, 30u);  // walk steps are counted as messages
}

TEST(PercolationSearch, QueryWalkCanFindReplicaDirectly) {
  const Graph g = path_graph(6);
  Rng rng(5);
  // Long query walk with no broadcast: must bump into the owner.
  const auto r =
      percolation_search(g, 5, 0, PercolationParams{0, 200, 0.0}, rng);
  EXPECT_TRUE(r.found);
}

TEST(PercolationSearch, HigherEdgeProbabilityHelps) {
  const Graph g = power_law_lcc(2000, 6);
  const VertexId owner = static_cast<VertexId>(g.num_vertices() - 1);
  int found_low = 0;
  int found_high = 0;
  for (std::uint64_t rep = 0; rep < 60; ++rep) {
    Rng lo(sfs::rng::audited_stream_seed(7, 0, rep));
    Rng hi(sfs::rng::audited_stream_seed(8, 0, rep));
    if (percolation_search(g, owner, 0, PercolationParams{10, 10, 0.05}, lo)
            .found)
      ++found_low;
    if (percolation_search(g, owner, 0, PercolationParams{10, 10, 0.9}, hi)
            .found)
      ++found_high;
  }
  EXPECT_GT(found_high, found_low);
  EXPECT_GT(found_high, 50);  // near-certain at q_e = 0.9 with replication
}

TEST(PercolationSearch, ReplicationImprovesSuccess) {
  const Graph g = power_law_lcc(2000, 9);
  const VertexId owner = static_cast<VertexId>(g.num_vertices() / 2);
  int found_bare = 0;
  int found_replicated = 0;
  for (std::uint64_t rep = 0; rep < 60; ++rep) {
    Rng a(sfs::rng::audited_stream_seed(10, 0, rep));
    Rng b(sfs::rng::audited_stream_seed(11, 0, rep));
    if (percolation_search(g, owner, 0, PercolationParams{0, 0, 0.2}, a)
            .found)
      ++found_bare;
    if (percolation_search(g, owner, 0, PercolationParams{60, 10, 0.2}, b)
            .found)
      ++found_replicated;
  }
  EXPECT_GT(found_replicated, found_bare);
}

TEST(PercolationSearch, MessagesSublinearInHighDegreeRegime) {
  // With modest q_e the broadcast stops early; messages well below edges.
  const Graph g = power_law_lcc(5000, 12);
  Rng rng(13);
  const auto r = percolation_search(
      g, static_cast<VertexId>(g.num_vertices() - 1), 0,
      PercolationParams{40, 10, 0.3}, rng);
  EXPECT_LT(r.messages, g.num_edges());
}

TEST(PercolationSearch, Preconditions) {
  const Graph g = path_graph(3);
  Rng rng(14);
  EXPECT_THROW((void)percolation_search(g, 5, 0, PercolationParams{}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)percolation_search(
                   g, 0, 1, PercolationParams{0, 0, 1.5}, rng),
               std::invalid_argument);
}

}  // namespace

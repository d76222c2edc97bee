// Tests for the Barabási–Albert generator.
#include "gen/barabasi_albert.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/algorithms.hpp"
#include "graph/degree.hpp"

namespace {

using sfs::gen::barabasi_albert;
using sfs::gen::BarabasiAlbertParams;
using sfs::graph::Graph;
using sfs::graph::VertexId;
using sfs::rng::Rng;

class BaInvariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BaInvariants, CountsAndConnectivity) {
  const std::size_t m = GetParam();
  Rng rng(1);
  const Graph g = barabasi_albert(300, BarabasiAlbertParams{m}, rng);
  EXPECT_EQ(g.num_vertices(), 300u);
  // Seed loop + m edges per vertex v >= 1 (capped at v for distinctness).
  std::size_t expected = 1;
  for (std::size_t v = 1; v < 300; ++v) expected += std::min(m, v);
  EXPECT_EQ(g.num_edges(), expected);
  EXPECT_TRUE(sfs::graph::is_connected(g));
}

TEST_P(BaInvariants, DistinctTargetsPerVertex) {
  const std::size_t m = GetParam();
  Rng rng(2);
  const Graph g = barabasi_albert(200, BarabasiAlbertParams{m}, rng);
  // Collect each vertex's out-neighbors; they must be distinct.
  std::vector<std::set<VertexId>> targets(g.num_vertices());
  std::vector<std::size_t> out_count(g.num_vertices(), 0);
  for (const auto& e : g.edges()) {
    if (e.is_loop()) continue;  // seed
    EXPECT_TRUE(targets[e.tail].insert(e.head).second)
        << "duplicate target for vertex " << e.tail;
    ++out_count[e.tail];
  }
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    EXPECT_EQ(out_count[v], std::min<std::size_t>(m, v));
  }
}

INSTANTIATE_TEST_SUITE_P(MSweep, BaInvariants, ::testing::Values(1u, 2u, 4u));

TEST(BarabasiAlbert, TargetsAreOlder) {
  Rng rng(3);
  const Graph g = barabasi_albert(150, BarabasiAlbertParams{2}, rng);
  for (const auto& e : g.edges()) {
    EXPECT_LE(e.head, e.tail);
  }
}

TEST(BarabasiAlbert, RichGetRicher) {
  // The seed vertex should end up with far more than the mean degree.
  Rng rng(4);
  const Graph g = barabasi_albert(5000, BarabasiAlbertParams{1}, rng);
  const double mean =
      sfs::graph::mean_degree(g, sfs::graph::DegreeKind::kUndirected);
  EXPECT_GT(static_cast<double>(g.degree(0)), 10.0 * mean);
}

TEST(BarabasiAlbert, HeavyTailSmokeTest) {
  Rng rng(5);
  const Graph g = barabasi_albert(20000, BarabasiAlbertParams{2}, rng);
  const auto dmax =
      sfs::graph::max_degree(g, sfs::graph::DegreeKind::kUndirected);
  // BA max degree ~ sqrt(n * m); Poisson-like models would give O(log n).
  EXPECT_GT(dmax, 100u);
}

TEST(BarabasiAlbert, Preconditions) {
  Rng rng(7);
  EXPECT_THROW((void)barabasi_albert(0, BarabasiAlbertParams{1}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)barabasi_albert(10, BarabasiAlbertParams{0}, rng),
               std::invalid_argument);
}

TEST(BarabasiAlbert, SingleVertexIsSeedLoop) {
  Rng rng(8);
  const Graph g = barabasi_albert(1, BarabasiAlbertParams{1}, rng);
  EXPECT_EQ(g.num_vertices(), 1u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.edge(0).is_loop());
}

}  // namespace

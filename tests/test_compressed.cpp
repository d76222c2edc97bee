// Tests for the compressed CSR substrate (graph/compressed.hpp): the
// Elias-Fano sequence primitives, the varint row codec, and the headline
// contract — Graph ⇄ CompressedGraph round-trips bit-exactly for every
// generator in the tree, and decode_adjacent reproduces Graph::adjacent
// slot for slot.
#include "graph/compressed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "gen/config_model.hpp"
#include "gen/cooper_frieze.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/kleinberg.hpp"
#include "gen/mori.hpp"
#include "graph/builder.hpp"

namespace {

using sfs::graph::AdjacencyDecodeBuffer;
using sfs::graph::CompressedGraph;
using sfs::graph::EliasFanoSequence;
using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::VertexId;
using sfs::rng::Rng;

void expect_graph_equal(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const auto ea = a.edges();
  const auto eb = b.edges();
  EXPECT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin()));
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto ia = a.incident(v);
    const auto ib = b.incident(v);
    ASSERT_EQ(ia.size(), ib.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin()));
    const auto aa = a.adjacent(v);
    const auto ab = b.adjacent(v);
    EXPECT_TRUE(std::equal(aa.begin(), aa.end(), ab.begin()));
    EXPECT_EQ(a.in_degree(v), b.in_degree(v));
    EXPECT_EQ(a.out_degree(v), b.out_degree(v));
  }
}

/// The full contract for one graph: row decode matches
/// adjacent(v) slot for slot, and decompress() rebuilds the Graph
/// bit-exactly.
void expect_round_trip(const Graph& g) {
  const CompressedGraph c = CompressedGraph::from_graph(g);
  ASSERT_EQ(c.num_vertices(), g.num_vertices());
  ASSERT_EQ(c.num_edges(), g.num_edges());
  AdjacencyDecodeBuffer buffer;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(c.degree(v), g.degree(v)) << "vertex " << v;
    const auto decoded = c.adjacent(v, buffer);
    const auto expected = g.adjacent(v);
    ASSERT_EQ(decoded.size(), expected.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(), expected.begin()))
        << "row mismatch at vertex " << v;
  }
  expect_graph_equal(g, c.decompress());
}

// -------------------------------------------------- Elias-Fano sequence

TEST(EliasFano, RoundTripsAssortedSequences) {
  const std::vector<std::vector<std::uint64_t>> cases = {
      {},
      {0},
      {7},
      {0, 0, 0, 0},
      {1, 2, 3, 4, 5},
      {0, 0, 5, 5, 5, 1000, 1000000, 1000000},
  };
  for (const auto& values : cases) {
    const auto seq = EliasFanoSequence::encode(values);
    ASSERT_EQ(seq.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(seq.get(i), values[i]) << "index " << i;
    }
  }
}

TEST(EliasFano, CrossesSelectSampleBoundaries) {
  // > 4 sample blocks with irregular gaps, so get() exercises the sampled
  // select path, not just the first word.
  std::vector<std::uint64_t> values;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 1500; ++i) {
    v += (i * i) % 97;
    values.push_back(v);
  }
  const auto seq = EliasFanoSequence::encode(values);
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(seq.get(i), values[i]) << "index " << i;
  }
}

TEST(EliasFano, RejectsDecreasingInputAndBadIndex) {
  const std::vector<std::uint64_t> bad = {3, 2};
  EXPECT_THROW((void)EliasFanoSequence::encode(bad), std::invalid_argument);
  const std::vector<std::uint64_t> good = {1, 2};
  const auto seq = EliasFanoSequence::encode(good);
  EXPECT_THROW((void)seq.get(2), std::invalid_argument);
}

// ------------------------------------------------------ hand-built edges

TEST(CompressedGraph, EmptyAndEdgelessGraphs) {
  expect_round_trip(Graph{});
  expect_round_trip(GraphBuilder(5).build());
}

TEST(CompressedGraph, SelfLoopsAndParallelEdges) {
  // Self-loops (two consecutive incidence slots), parallel edges in both
  // orientations, and an isolated vertex — the edge cases of the
  // tail-replay reconstruction.
  GraphBuilder b(5);
  (void)b.add_edge(0, 0);
  (void)b.add_edge(1, 2);
  (void)b.add_edge(2, 1);
  (void)b.add_edge(1, 2);
  (void)b.add_edge(3, 3);
  (void)b.add_edge(3, 3);
  (void)b.add_edge(0, 3);
  const Graph g = b.build();
  expect_round_trip(g);
}

TEST(CompressedGraph, NonMonotoneTailOrder) {
  // Tails that jump backwards exercise the signed zigzag deltas of the
  // tail stream (growth models only ever move forward).
  GraphBuilder b(6);
  (void)b.add_edge(5, 0);
  (void)b.add_edge(0, 4);
  (void)b.add_edge(3, 5);
  (void)b.add_edge(1, 1);
  (void)b.add_edge(4, 0);
  const Graph g = b.build();
  expect_round_trip(g);
}

// --------------------------------------------------- all seven generators

TEST(CompressedGraph, RoundTripsBarabasiAlbert) {
  for (const bool distinct : {true, false}) {
    Rng rng(41 + distinct);
    const Graph g = sfs::gen::barabasi_albert(
        400, {.m = 3, .distinct_targets = distinct}, rng);
    expect_round_trip(g);
  }
}

TEST(CompressedGraph, RoundTripsConfigurationModel) {
  const sfs::gen::PowerLawSequenceParams seq{.exponent = 2.3, .d_min = 1};
  for (const bool erase : {false, true}) {
    Rng rng(42 + erase);
    const Graph g = sfs::gen::power_law_configuration_graph(
        400, seq, {.erase_defects = erase}, rng);
    expect_round_trip(g);
  }
}

TEST(CompressedGraph, RoundTripsCooperFrieze) {
  sfs::gen::CooperFriezeParams params;
  params.p = {0.5, 0.5};
  Rng rng(43);
  const auto g = sfs::gen::cooper_frieze(300, params, rng);
  expect_round_trip(g.graph);
}

TEST(CompressedGraph, RoundTripsErdosRenyi) {
  Rng r1(44);
  const Graph gnm = sfs::gen::erdos_renyi_gnm(300, 900, r1);
  Rng r2(45);
  const Graph gnp = sfs::gen::erdos_renyi_gnp(300, 0.02, r2);
  expect_round_trip(gnm);
  expect_round_trip(gnp);
}

TEST(CompressedGraph, RoundTripsKleinberg) {
  Rng rng(46);
  const sfs::gen::KleinbergGrid grid(12, {.r = 2.0, .q = 2}, rng);
  expect_round_trip(grid.graph());
}

TEST(CompressedGraph, RoundTripsMoriTree) {
  Rng rng(47);
  const Graph g = sfs::gen::mori_tree(400, sfs::gen::MoriParams{0.5}, rng);
  expect_round_trip(g);
}

TEST(CompressedGraph, RoundTripsMergedMori) {
  Rng rng(48);
  const Graph g =
      sfs::gen::merged_mori_graph(400, 3, sfs::gen::MoriParams{0.6}, rng);
  expect_round_trip(g);
}

// ----------------------------------------------------- memory accounting

TEST(CompressedGraph, CompressesPreferentialAttachmentSubstantially) {
  // The acceptance-grade 4x claim is measured at n >= 1e6 by the m6
  // experiment; at test scale the ratio is already well above 2x and the
  // accounting functions must agree with the actual stream sizes.
  Rng rng(49);
  const Graph g =
      sfs::gen::merged_mori_graph(20000, 1, sfs::gen::MoriParams{0.5}, rng);
  const std::size_t raw = sfs::graph::graph_memory_bytes(g);
  const CompressedGraph c = CompressedGraph::from_graph(g);
  EXPECT_GT(c.memory_bytes(), 0u);
  EXPECT_GT(static_cast<double>(raw) / static_cast<double>(c.memory_bytes()),
            2.0);
}

TEST(CompressedGraph, DecodeBufferIsReusedAcrossRows) {
  Rng rng(50);
  const Graph g = sfs::gen::barabasi_albert(500, {.m = 4}, rng);
  const CompressedGraph c = CompressedGraph::from_graph(g);
  AdjacencyDecodeBuffer buffer;
  // Warm the buffer past the maximum degree, then confirm no further
  // capacity growth while sweeping every row (the zero-alloc contract the
  // per-worker buffer in sim::WorkerContext relies on).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    (void)c.adjacent(v, buffer);
  }
  const std::size_t high_water = buffer.slots.capacity();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    (void)c.adjacent(v, buffer);
  }
  EXPECT_EQ(buffer.slots.capacity(), high_water);
}

}  // namespace

// Tests for graph::Overlay: the incremental mutation layer — staged joins,
// tombstone departures, targeted edge failures, periodic compaction, and
// the epoch/determinism contracts the churn engine builds on.
#include "graph/overlay.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "gen/mori.hpp"
#include "graph/builder.hpp"
#include "rng/random.hpp"

namespace {

using sfs::graph::Edge;
using sfs::graph::EdgeId;
using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::Overlay;
using sfs::graph::VertexId;

// Triangle 0-1-2 plus pendant 3 hanging off 2 (edges 0:01, 1:12, 2:02, 3:23).
Graph diamond() {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  return b.build();
}

Graph mori(std::size_t n, std::uint64_t seed) {
  sfs::rng::Rng rng(seed);
  return sfs::gen::merged_mori_graph(n, 2, sfs::gen::MoriParams{0.5}, rng);
}

TEST(Overlay, StartsFullyAliveAtEpochOne) {
  Overlay o(diamond());
  EXPECT_EQ(o.epoch(), 1u);
  EXPECT_EQ(o.num_vertices(), 4u);
  EXPECT_EQ(o.num_alive(), 4u);
  EXPECT_EQ(o.staged_joins(), 0u);
  EXPECT_EQ(o.compactions(), 0u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_TRUE(o.alive(v));
  for (EdgeId e = 0; e < 4; ++e) EXPECT_TRUE(o.edge_alive(e));
  EXPECT_EQ(o.vertex_alive_mask().size(), 4u);
  EXPECT_EQ(o.edge_alive_mask().size(), 4u);
  EXPECT_EQ(o.live_degree(2), 3u);
}

TEST(Overlay, DepartTombstonesAndBumpsEpoch) {
  Overlay o(diamond());
  o.depart(3);
  EXPECT_EQ(o.epoch(), 2u);
  EXPECT_FALSE(o.alive(3));
  EXPECT_EQ(o.num_alive(), 3u);
  EXPECT_EQ(o.num_vertices(), 4u);  // the id remains issued
  // Edge 3 (2-3) still sits in the CSR and in the edge mask (tombstones
  // leave their edges dangling until compaction)...
  EXPECT_TRUE(o.edge_alive(3));
  // ...but the *live* degree of 2 no longer counts the dead endpoint.
  EXPECT_EQ(o.live_degree(2), 2u);
  EXPECT_EQ(o.live_degree(3), 0u);
  EXPECT_THROW(o.depart(3), std::invalid_argument);  // already dead
}

TEST(Overlay, FailEdgeMasksLink) {
  Overlay o(diamond());
  o.fail_edge(1);  // link 1-2
  EXPECT_EQ(o.epoch(), 2u);
  EXPECT_FALSE(o.edge_alive(1));
  EXPECT_EQ(o.live_degree(1), 1u);
  EXPECT_EQ(o.live_degree(2), 2u);
  EXPECT_THROW(o.fail_edge(1), std::invalid_argument);  // already dead
}

TEST(Overlay, JoinStagesUntilCompaction) {
  Overlay o(diamond());
  sfs::rng::Rng rng(7);
  const VertexId v = o.join(2, rng);
  EXPECT_EQ(v, 4u);  // next never-reused id
  EXPECT_EQ(o.num_vertices(), 5u);
  EXPECT_EQ(o.num_alive(), 5u);
  EXPECT_EQ(o.staged_joins(), 1u);
  EXPECT_TRUE(o.alive(v));
  EXPECT_EQ(o.live_degree(v), 2u);  // staged links count toward live degree
  // The CSR snapshot is unchanged until compact().
  EXPECT_EQ(o.snapshot().num_vertices(), 4u);
  EXPECT_EQ(o.snapshot().num_edges(), 4u);

  o.compact();
  EXPECT_EQ(o.staged_joins(), 0u);
  EXPECT_EQ(o.compactions(), 1u);
  EXPECT_EQ(o.snapshot().num_vertices(), 5u);
  EXPECT_EQ(o.snapshot().num_edges(), 6u);
  EXPECT_EQ(o.snapshot().degree(v), 2u);
  // Every committed join edge lands on a pre-existing vertex.
  for (EdgeId e : o.snapshot().incident(v)) {
    const Edge& ed = o.snapshot().edge(e);
    const VertexId far = ed.tail == v ? ed.head : ed.tail;
    EXPECT_LT(far, 4u);
  }
}

TEST(Overlay, CompactDropsDeadEdgesAndPreservesIds) {
  Overlay o(diamond());
  o.depart(3);
  o.fail_edge(0);  // link 0-1
  o.compact();
  const Graph& g = o.snapshot();
  EXPECT_EQ(g.num_vertices(), 4u);  // tombstone keeps its id, isolated
  EXPECT_EQ(g.num_edges(), 2u);     // 1-2 and 0-2 survive
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(o.alive(3));  // still dead after compaction
  // Edge mask reset to all-alive at the new (renumbered) edge ids.
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_TRUE(o.edge_alive(e));
}

TEST(Overlay, MaybeCompactPolicy) {
  Overlay o(mori(100, 3));
  const std::size_t m = o.snapshot().num_edges();
  EXPECT_FALSE(o.maybe_compact(0.25));  // nothing staged, no debt
  o.fail_edge(0);
  EXPECT_FALSE(o.maybe_compact(0.25));  // 1 dead edge: below threshold
  // Push the dead-edge debt over 25% of m.
  std::size_t failed = 1;
  for (EdgeId e = 1; e < m && failed <= m / 4; ++e) {
    o.fail_edge(e);
    ++failed;
  }
  EXPECT_TRUE(o.maybe_compact(0.25));
  EXPECT_EQ(o.compactions(), 1u);
  // Staged joins always force a compaction regardless of debt.
  sfs::rng::Rng rng(11);
  (void)o.join(2, rng);
  EXPECT_TRUE(o.maybe_compact(0.25));
}

TEST(Overlay, JoinTargetsOnlyLivePeers) {
  Overlay o(diamond());
  o.depart(0);
  o.depart(1);  // only 2 and 3 remain alive
  sfs::rng::Rng rng(13);
  for (int i = 0; i < 8; ++i) {
    const VertexId v = o.join(3, rng);
    o.compact();
    for (EdgeId e : o.snapshot().incident(v)) {
      const Edge& ed = o.snapshot().edge(e);
      const VertexId far = ed.tail == v ? ed.head : ed.tail;
      EXPECT_TRUE(o.alive(far)) << "join " << i << " hit dead peer " << far;
    }
  }
}

TEST(Overlay, DeterministicUnderIdenticalMutationSequence) {
  auto mutate = [](Overlay& o, std::uint64_t seed) {
    sfs::rng::Rng rng(seed);
    o.depart(5);
    o.fail_edge(2);
    (void)o.join(2, rng);
    (void)o.join(3, rng);
    o.depart(17);
    o.compact();
    (void)o.join(2, rng);
    o.compact();
  };
  Overlay a(mori(200, 42));
  Overlay b(mori(200, 42));
  mutate(a, 9);
  mutate(b, 9);
  EXPECT_EQ(a.epoch(), b.epoch());
  ASSERT_EQ(a.snapshot().num_vertices(), b.snapshot().num_vertices());
  ASSERT_EQ(a.snapshot().num_edges(), b.snapshot().num_edges());
  for (EdgeId e = 0; e < a.snapshot().num_edges(); ++e) {
    EXPECT_EQ(a.snapshot().edge(e).tail, b.snapshot().edge(e).tail) << e;
    EXPECT_EQ(a.snapshot().edge(e).head, b.snapshot().edge(e).head) << e;
  }
}

TEST(Overlay, ValidatesArguments) {
  Overlay o(diamond());
  sfs::rng::Rng rng(1);
  EXPECT_THROW((void)o.alive(4), std::invalid_argument);
  EXPECT_THROW((void)o.edge_alive(4), std::invalid_argument);
  EXPECT_THROW(o.depart(4), std::invalid_argument);
  EXPECT_THROW(o.fail_edge(9), std::invalid_argument);
  EXPECT_THROW((void)o.join(0, rng), std::invalid_argument);
  EXPECT_THROW((void)o.live_degree(4), std::invalid_argument);
}

TEST(Overlay, CompactionEpochInvalidatesMasksBySize) {
  // After a compaction the edge mask tracks the renumbered edge set; a
  // consumer holding a pre-compaction span would see the size change.
  Overlay o(mori(60, 5));
  const std::size_t m_before = o.edge_alive_mask().size();
  o.depart(0);
  const std::uint64_t epoch_before = o.epoch();
  o.compact();
  EXPECT_GT(o.epoch(), epoch_before);
  EXPECT_LT(o.edge_alive_mask().size(), m_before);
}

// ------------------------------------------------------- join sampler

// The incremental live mass must track live_degree(v) + 1 exactly through
// an arbitrary interleaving of joins, departures, edge failures and
// compactions — any drift would silently bias every later join.
void expect_mass_matches_live_degree(Overlay& o) {
  for (VertexId v = 0; v < o.num_vertices(); ++v) {
    const std::uint64_t expected =
        o.alive(v) ? static_cast<std::uint64_t>(o.live_degree(v)) + 1 : 0;
    EXPECT_EQ(o.join_mass(v), expected) << "vertex " << v;
  }
}

TEST(Overlay, BucketedMassTracksLiveDegreeThroughMutationStorm) {
  Overlay o(mori(80, 21));
  sfs::rng::Rng rng(22);
  expect_mass_matches_live_degree(o);
  for (int round = 0; round < 60; ++round) {
    const auto move = rng.uniform_index(10);
    if (move < 4) {
      (void)o.join(1 + static_cast<std::size_t>(rng.uniform_index(3)), rng);
    } else if (move < 7 && o.num_alive() > 10) {
      // Depart a random live vertex.
      for (;;) {
        const auto v =
            static_cast<VertexId>(rng.uniform_index(o.num_vertices()));
        if (o.alive(v)) {
          o.depart(v);
          break;
        }
      }
    } else if (move < 9) {
      // Fail a random live snapshot edge, if any remain.
      const auto m = o.edge_alive_mask().size();
      for (std::size_t tries = 0; tries < 2 * m + 1; ++tries) {
        const auto e = static_cast<EdgeId>(rng.uniform_index(m));
        if (o.edge_alive(e)) {
          o.fail_edge(e);
          break;
        }
      }
    } else {
      (void)o.maybe_compact(0.1);
    }
    if (round % 10 == 0) expect_mass_matches_live_degree(o);
  }
  expect_mass_matches_live_degree(o);
  o.compact();
  expect_mass_matches_live_degree(o);
}

TEST(Overlay, JoinTargetsFollowLiveDegreePlusOne) {
  // Empirical join-target frequencies must match the live_degree + 1 law.
  constexpr int kJoins = 30000;
  const Graph base = diamond();
  std::vector<std::size_t> hits(4, 0);
  std::size_t total = 0;
  for (int trial = 0; trial < kJoins; ++trial) {
    Overlay o(base);
    sfs::rng::Rng rng(1000 + trial);
    (void)o.join(1, rng);
    for (VertexId v = 0; v < 4; ++v) {
      // The single join target is the vertex whose live degree grew.
      const std::size_t d = o.live_degree(v);
      const std::size_t base_deg = base.degree(v);
      if (d > base_deg) {
        hits[v] += d - base_deg;
        total += d - base_deg;
      }
    }
  }
  // Expected mass: degree+1 over total 4 + 8 = 12 -> {3,3,4,2}/12.
  const double expected[4] = {3.0 / 12, 3.0 / 12, 4.0 / 12, 2.0 / 12};
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_NEAR(static_cast<double>(hits[v]) / total, expected[v], 0.02)
        << "vertex " << v;
  }
}

}  // namespace

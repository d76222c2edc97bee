// Tests for the Móri tree and merged Móri graph — structural invariants,
// degenerate parameter values, and the exact attachment law.
#include "gen/mori.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <vector>

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
  const Graph g = proc.graph();
  EXPECT_EQ(g.in_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 0u);
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
  const Graph g = proc.graph();
  std::size_t total = 0;
  for (VertexId v = 0; v < 150; ++v) total += g.in_degree(v);
  EXPECT_EQ(total, 149u);
}

TEST(MoriProcess, GraphMatchesProcess) {
  // Edge v-1 is v's out-edge to its father, and a vertex's indegree is
  // its number of children.
  Rng rng(41);
  MoriProcess proc((MoriParams{0.3}));
  proc.grow_to(60, rng);
  const Graph g = proc.graph();
  const auto& f = proc.all_fathers();
  std::vector<std::size_t> children(60, 0);
  for (VertexId v = 1; v < 60; ++v) {
    EXPECT_EQ(g.edge(v - 1), (sfs::graph::Edge{v, f[v]}));
    ++children[f[v]];
  }
  for (VertexId v = 0; v < 60; ++v) {
    EXPECT_EQ(g.in_degree(v), children[v]);
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

TEST(Mori, RejectsVertexCountsPastVertexIdAtEntry) {
  // A count past kNoVertex must throw before the process grows a single
  // vertex; growing first would allocate tens of GiB and only then fail.
  const std::size_t too_many = static_cast<std::size_t>(kNoVertex) + 1;
  Rng rng(67);
  EXPECT_THROW((void)mori_tree(too_many, MoriParams{0.5}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)merged_mori_graph(too_many / 2, 2, MoriParams{0.5}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)merged_mori_graph(too_many / 4 + 1, 4, MoriParams{0.5},
                                       rng),
               std::invalid_argument);
  MoriProcess proc((MoriParams{0.5}));
  EXPECT_THROW(proc.grow_to(too_many, rng), std::invalid_argument);
  EXPECT_EQ(proc.size(), 2u);
  EXPECT_EQ(rng.u64(), Rng(67).u64());  // no draw was made
}

// ------------------------------------------------------------ golden graphs

// The generator pinned bit for bit: FNV-1a hashes of the edge records,
// every incidence and adjacency span, both degree arrays, and the next
// draw of the generator's stream after generation. The values were
// recorded with the builder that pushes every edge through GraphBuilder,
// so any change to the draws, the edge ids or the incidence order of a
// faster construction fails here.
class Fnv1a {
 public:
  void add(std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct GraphHashes {
  std::uint64_t edges = 0;
  std::uint64_t incidence = 0;
  std::uint64_t adjacency = 0;
  std::uint64_t degrees = 0;
  std::uint64_t next_draw = 0;
  friend bool operator==(const GraphHashes&, const GraphHashes&) = default;
};

std::ostream& operator<<(std::ostream& os, const GraphHashes& h) {
  return os << std::hex << std::showbase << "{" << h.edges << "ULL, "
            << h.incidence << "ULL, " << h.adjacency << "ULL, " << h.degrees
            << "ULL, " << h.next_draw << "ULL}" << std::dec
            << std::noshowbase;
}

GraphHashes hash_graph(const Graph& g, Rng& rng) {
  Fnv1a edges;
  Fnv1a incidence;
  Fnv1a adjacency;
  Fnv1a degrees;
  for (const auto& e : g.edges()) {
    edges.add(e.tail, 4);
    edges.add(e.head, 4);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    incidence.add(g.incident(v).size(), 8);
    for (const auto e : g.incident(v)) incidence.add(e, 4);
    adjacency.add(g.adjacent(v).size(), 8);
    for (const auto u : g.adjacent(v)) adjacency.add(u, 4);
    degrees.add(g.in_degree(v), 4);
    degrees.add(g.out_degree(v), 4);
  }
  return {edges.value(), incidence.value(), adjacency.value(),
          degrees.value(), rng.u64()};
}

struct TreeGolden {
  double p;
  std::size_t n;
  GraphHashes want;
};

struct MergedGolden {
  double p;
  std::size_t n;
  std::size_t m;
  GraphHashes want;
};

std::uint64_t golden_seed(double p, std::size_t n, std::size_t m) {
  return 0x6D6F7269ULL + 1000003ULL * n + 101ULL * m +
         static_cast<std::uint64_t>(p * 100.0);
}

constexpr TreeGolden kTreeGoldens[] = {
    {0.0, 2,
     {0x89cd31291d2aefa4ULL, 0x506e1a3b9da07155ULL, 0xb4e528c2fb191834ULL,
      0xd91cb5f9a42008b5ULL, 0x728799d7033dd203ULL}},
    {0.0, 3,
     {0x7717980363c8e066ULL, 0xf8ac7ca3623b02d7ULL, 0xfc9819123bdd08d4ULL,
      0x79d8bab676777ba7ULL, 0xf8012d5c25404448ULL}},
    {0.0, 1000,
     {0x84c086e2e7b93132ULL, 0x9ee65a84debf0923ULL, 0xf60ce54143b43edcULL,
      0x898078886119755fULL, 0x1eac99381d41cb00ULL}},
    {0.0, 65536,
     {0x10a848d203655e7cULL, 0x3b709e863794a4f3ULL, 0xefeb4db38ff48326ULL,
      0xc2b4d19b89f523e9ULL, 0x186896fbac0857fULL}},
    {0.25, 2,
     {0x89cd31291d2aefa4ULL, 0x506e1a3b9da07155ULL, 0xb4e528c2fb191834ULL,
      0xd91cb5f9a42008b5ULL, 0xb291b0612d588577ULL}},
    {0.25, 3,
     {0x7717980363c8e066ULL, 0xf8ac7ca3623b02d7ULL, 0xfc9819123bdd08d4ULL,
      0x79d8bab676777ba7ULL, 0x1b89aedc62ac16fcULL}},
    {0.25, 1000,
     {0x40fd86c46ec671aeULL, 0x4997ac8cb3abf6e1ULL, 0xb62141403e9f8812ULL,
      0x9931deb2d34d4159ULL, 0x37a41b51ccd3ad35ULL}},
    {0.25, 65536,
     {0x471e23a3f45e6f58ULL, 0xd84a2648be72645dULL, 0xf56de61728d3d56cULL,
      0xeed748d0abeee23ULL, 0xc562edb53b3c2273ULL}},
    {0.5, 2,
     {0x89cd31291d2aefa4ULL, 0x506e1a3b9da07155ULL, 0xb4e528c2fb191834ULL,
      0xd91cb5f9a42008b5ULL, 0x5d7c7f6032da5a70ULL}},
    {0.5, 3,
     {0x7717980363c8e066ULL, 0xf8ac7ca3623b02d7ULL, 0xfc9819123bdd08d4ULL,
      0x79d8bab676777ba7ULL, 0x1ad6fc6c8ce64c1fULL}},
    {0.5, 1000,
     {0xf2a3cfcb91ee7effULL, 0x679f3c2eef763a41ULL, 0x600ff96798e6cf2bULL,
      0xce46db2e7831ac51ULL, 0x973c94987f012f8aULL}},
    {0.5, 65536,
     {0xafc7650c4e19b3d5ULL, 0xd508faa821abe1beULL, 0x3a1e60c76677b65aULL,
      0xff728cf73141a210ULL, 0x8711bb1dba97be50ULL}},
    {1.0, 2,
     {0x89cd31291d2aefa4ULL, 0x506e1a3b9da07155ULL, 0xb4e528c2fb191834ULL,
      0xd91cb5f9a42008b5ULL, 0xd7aa231f684d5d9dULL}},
    {1.0, 3,
     {0x7717980363c8e066ULL, 0xf8ac7ca3623b02d7ULL, 0xfc9819123bdd08d4ULL,
      0x79d8bab676777ba7ULL, 0xda58254f3462ca57ULL}},
    {1.0, 1000,
     {0xe3e60f506619adf5ULL, 0x7381c24c2729592ULL, 0xf83ba87a35923206ULL,
      0x2fd758d7fc16e656ULL, 0x63a3320d72aeb21cULL}},
    {1.0, 65536,
     {0x210d5f3651f62885ULL, 0x301202fb3be6d21eULL, 0xbd668a9f5bc28c4aULL,
      0x947f784e5f6b0f3aULL, 0xa368fd848c51b9d5ULL}},
};

constexpr MergedGolden kMergedGoldens[] = {
    {0.25, 1, 2,
     {0xa8c7f832281a39c5ULL, 0x261c4b49872994e7ULL, 0x261c4b49872994e7ULL,
      0x29c7dd317360ac35ULL, 0x1bc812d4c045eb8eULL}},
    {0.25, 2, 1,
     {0x89cd31291d2aefa4ULL, 0x506e1a3b9da07155ULL, 0xb4e528c2fb191834ULL,
      0xd91cb5f9a42008b5ULL, 0x4cb56e35817421bdULL}},
    {0.25, 3, 3,
     {0xf7449f7c2d3a2206ULL, 0x765bd91a6bcdb1efULL, 0xa0c8df2685cc654cULL,
      0x7b8e7ab12e30f34fULL, 0x42db6eef9914d17cULL}},
    {0.5, 1000, 1,
     {0x6d4e9c6a37a54579ULL, 0x1980bc7c7e11576bULL, 0x965e719f2ba33387ULL,
      0xe32ed385370ebba3ULL, 0xa1219f58964464b5ULL}},
    {0.5, 1000, 2,
     {0x5d5c103b8626a955ULL, 0xca853856081a15bdULL, 0x47502a7a89bb3355ULL,
      0xfcbc983312c46adfULL, 0x90f71b9eaf652759ULL}},
    {0.5, 1000, 3,
     {0x6236f432a27d7bd1ULL, 0xd5387bba4472630dULL, 0xad118dbef97eaf01ULL,
      0xf1fc01dd5855bed1ULL, 0xc8637dd49cfdbb9ULL}},
    {0.5, 65536, 1,
     {0xc08b2453f71be040ULL, 0x6a577b6fdab25520ULL, 0x512017481b68cb5dULL,
      0x919a86a20075ba66ULL, 0x3df3f86640cdc076ULL}},
    {0.5, 65536, 2,
     {0x852244b14e33365ULL, 0xe4d4bf11ff4a6596ULL, 0x1a1961353e674d2eULL,
      0xbc6a8231aac13ff6ULL, 0xdace2f36c891895aULL}},
    {0.5, 65536, 3,
     {0xaaeb716323775055ULL, 0xde7eaab75afa4203ULL, 0x9dd5c9503144985bULL,
      0x3fb33003f482d1a2ULL, 0xe8da2012ba7185feULL}},
};

TEST(MoriGolden, Tree) {
  for (const auto& golden : kTreeGoldens) {
    SCOPED_TRACE(::testing::Message()
                 << "p=" << golden.p << " n=" << golden.n);
    Rng rng(golden_seed(golden.p, golden.n, 0));
    const Graph g = mori_tree(golden.n, MoriParams{golden.p}, rng);
    EXPECT_EQ(hash_graph(g, rng), golden.want);
  }
}

TEST(MoriGolden, ProcessGraphMatchesTree) {
  // MoriProcess::graph() materializes the same tree as mori_tree.
  for (const auto& golden : kTreeGoldens) {
    SCOPED_TRACE(::testing::Message()
                 << "p=" << golden.p << " n=" << golden.n);
    Rng rng(golden_seed(golden.p, golden.n, 0));
    MoriProcess proc(MoriParams{golden.p});
    proc.grow_to(golden.n, rng);
    EXPECT_EQ(hash_graph(proc.graph(), rng), golden.want);
  }
}

TEST(MoriGolden, Merged) {
  for (const auto& golden : kMergedGoldens) {
    SCOPED_TRACE(::testing::Message() << "p=" << golden.p << " n="
                                      << golden.n << " m=" << golden.m);
    Rng rng(golden_seed(golden.p, golden.n, golden.m));
    const Graph g =
        merged_mori_graph(golden.n, golden.m, MoriParams{golden.p}, rng);
    EXPECT_EQ(hash_graph(g, rng), golden.want);
  }
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

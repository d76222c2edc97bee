// Tests for graph::build_recursive_tree: the Graph it packs straight from
// a father array must equal the one GraphBuilder packs from the edges
// (v, fathers[v]) in increasing v, round-trip through gen::fathers, and
// every malformed father array must be rejected before `g` is touched.
#include <sys/mman.h>

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "gen/mori.hpp"
#include "graph/builder.hpp"
#include "graph_equal.hpp"
#include "rng/random.hpp"

namespace {

using sfs::gen::MoriParams;
using sfs::gen::MoriProcess;
using sfs::graph::build_recursive_tree;
using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::kNoVertex;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::test::expect_graph_equal;

using Fathers = std::vector<VertexId>;

// What the tree builder must reproduce: the edges (v, fathers[v]) pushed
// through GraphBuilder in increasing v.
Graph reference(const Fathers& fathers) {
  GraphBuilder b(fathers.size());
  for (std::size_t v = 1; v < fathers.size(); ++v) {
    b.add_edge(static_cast<VertexId>(v), fathers[v]);
  }
  return b.build();
}

Graph built(const Fathers& fathers) {
  Graph g;
  build_recursive_tree(fathers, g);
  return g;
}

Fathers star(std::size_t n) {
  Fathers f(n, 0);
  f[0] = kNoVertex;
  return f;
}

Fathers path(std::size_t n) {
  Fathers f(n);
  f[0] = kNoVertex;
  for (std::size_t v = 1; v < n; ++v) f[v] = static_cast<VertexId>(v - 1);
  return f;
}

Fathers random_recursive(std::size_t n, Rng& rng) {
  Fathers f(n);
  f[0] = kNoVertex;
  for (std::size_t v = 1; v < n; ++v) {
    f[v] = static_cast<VertexId>(rng.uniform_index(v));
  }
  return f;
}

Fathers mori(std::size_t n, double p, Rng& rng) {
  MoriProcess proc(MoriParams{p});
  proc.grow_to(n, rng);
  return proc.all_fathers();
}

TEST(RecursiveTreeBuild, MatchesGraphBuilderFromOneVertexTo300) {
  Rng rng(71);
  Graph reused;  // recycled through every shape and size below
  for (std::size_t n = 1; n <= 300; ++n) {
    std::vector<Fathers> shapes = {star(n), path(n), random_recursive(n, rng)};
    if (n >= 2) {
      shapes.push_back(mori(n, 0.25, rng));
      shapes.push_back(mori(n, 0.75, rng));
    }
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " shape " << s);
      const Graph want = reference(shapes[s]);
      expect_graph_equal(built(shapes[s]), want);
      build_recursive_tree(shapes[s], reused);
      expect_graph_equal(reused, want);
    }
  }
}

TEST(RecursiveTreeBuild, RecyclesAnyPriorGraph) {
  // `g` may hold anything before: a larger multigraph with self-loops and
  // parallel edges, or a larger tree.
  Rng rng(73);
  const Fathers small = mori(40, 0.5, rng);
  const Graph want = reference(small);
  Graph g = sfs::gen::merged_mori_graph(300, 3, MoriParams{0.5}, rng);
  build_recursive_tree(small, g);
  expect_graph_equal(g, want);
  build_recursive_tree(mori(500, 0.5, rng), g);
  build_recursive_tree(small, g);
  expect_graph_equal(g, want);
}

TEST(RecursiveTreeBuild, RoundTripsThroughFathers) {
  Rng rng(79);
  for (const double p : {0.0, 0.25, 0.5, 1.0}) {
    for (const std::size_t n : {2u, 3u, 50u, 1000u}) {
      SCOPED_TRACE(::testing::Message() << "p=" << p << " n=" << n);
      const Graph g = sfs::gen::mori_tree(n, MoriParams{p}, rng);
      expect_graph_equal(built(sfs::gen::fathers(g)), g);
    }
  }
  const Graph g = reference(random_recursive(257, rng));
  expect_graph_equal(built(sfs::gen::fathers(g)), g);
}

TEST(RecursiveTreeBuild, RejectsMalformedFatherArraysLeavingGraphUntouched) {
  Rng rng(83);
  const Fathers valid = mori(30, 0.5, rng);
  Graph g = built(valid);
  const auto rejects = [&](const Fathers& fathers) {
    EXPECT_THROW(build_recursive_tree(fathers, g), std::invalid_argument);
    expect_graph_equal(g, reference(valid));
  };
  rejects({});                          // no root
  rejects({0});                         // the root has a father
  rejects({0, 0});
  rejects({kNoVertex, 1});              // its own father
  rejects({kNoVertex, 0, 2});
  rejects({kNoVertex, 0, 3, 0});        // a younger father
  rejects({kNoVertex, 0, 1, 7});        // a father past the last vertex
  rejects({kNoVertex, kNoVertex});      // a second root
  Fathers late = valid;
  late.back() = static_cast<VertexId>(late.size() - 1);
  rejects(late);                        // only the last vertex is wrong
}

TEST(RecursiveTreeBuild, RejectsMoreVerticesThanVertexIdHoldsBeforeReading) {
  // A father array one longer than kNoVertex allows, over reserved address
  // space that faults on any read: the count must be rejected first.
  const std::size_t n = static_cast<std::size_t>(kNoVertex) + 1;
  void* const space = mmap(nullptr, n * sizeof(VertexId), PROT_NONE,
                           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (space == MAP_FAILED) GTEST_SKIP() << "cannot reserve 16 GiB of addresses";
  Graph g;
  EXPECT_THROW(build_recursive_tree(
                   std::span<const VertexId>(
                       static_cast<const VertexId*>(space), n),
                   g),
               std::invalid_argument);
  munmap(space, n * sizeof(VertexId));
  EXPECT_EQ(g.num_vertices(), 0u);
}

}  // namespace

// Tests for BFS, connectivity, subgraphs and distance estimation.
#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include "gen/mori.hpp"
#include "graph/builder.hpp"

namespace {

using sfs::graph::bfs;
using sfs::graph::connected_components;
using sfs::graph::distance;
using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::induced_subgraph;
using sfs::graph::is_connected;
using sfs::graph::is_recursive_tree;
using sfs::graph::is_tree;
using sfs::graph::kNoVertex;
using sfs::graph::kUnreachable;
using sfs::graph::largest_component;
using sfs::graph::pseudo_diameter;
using sfs::graph::sample_distances;
using sfs::graph::VertexId;

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph cycle_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v)
    b.add_edge(v, static_cast<VertexId>((v + 1) % n));
  return b.build();
}

Graph star_graph(std::size_t leaves) {
  GraphBuilder b(leaves + 1);
  for (VertexId v = 1; v <= leaves; ++v) b.add_edge(v, 0);
  return b.build();
}

Graph complete_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v) b.add_edge(u, v);
  return b.build();
}

TEST(Bfs, PathDistances) {
  const Graph g = path_graph(5);
  const auto r = bfs(g, 0);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(r.distance[v], v);
  EXPECT_EQ(r.max_distance, 4u);
  EXPECT_EQ(r.farthest, 4u);
}

TEST(Bfs, ParentsFormTree) {
  const Graph g = cycle_graph(6);
  const auto r = bfs(g, 0);
  EXPECT_EQ(r.parent[0], kNoVertex);
  for (VertexId v = 1; v < 6; ++v) {
    ASSERT_NE(r.parent[v], kNoVertex);
    EXPECT_EQ(r.distance[v], r.distance[r.parent[v]] + 1);
  }
}

TEST(Bfs, UnreachableMarked) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const auto r = bfs(g, 0);
  EXPECT_EQ(r.distance[1], 1u);
  EXPECT_EQ(r.distance[2], kUnreachable);
  EXPECT_EQ(r.distance[3], kUnreachable);
}

TEST(Bfs, CycleDistancesWrap) {
  const Graph g = cycle_graph(8);
  const auto r = bfs(g, 0);
  EXPECT_EQ(r.distance[4], 4u);
  EXPECT_EQ(r.distance[5], 3u);
  EXPECT_EQ(r.distance[7], 1u);
}

TEST(Distance, MatchesBfs) {
  const Graph g = cycle_graph(10);
  EXPECT_EQ(distance(g, 0, 5), 5u);
  EXPECT_EQ(distance(g, 2, 2), 0u);
}

TEST(Components, CountsAndLabels) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const Graph g = b.build();
  const auto c = connected_components(g);
  EXPECT_EQ(c.count, 3u);
  EXPECT_EQ(c.label[0], c.label[1]);
  EXPECT_EQ(c.label[1], c.label[2]);
  EXPECT_EQ(c.label[3], c.label[4]);
  EXPECT_NE(c.label[0], c.label[3]);
  EXPECT_NE(c.label[5], c.label[0]);
  const auto sizes = c.sizes();
  EXPECT_EQ(sizes[c.label[0]], 3u);
  EXPECT_EQ(sizes[c.label[3]], 2u);
  EXPECT_EQ(sizes[c.label[5]], 1u);
  EXPECT_EQ(c.largest(), c.label[0]);
}

TEST(Components, SelfLoopsDoNotDisconnect) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_TRUE(is_connected(g));
}

TEST(IsConnected, SingletonAndEmpty) {
  EXPECT_TRUE(is_connected(GraphBuilder(1).build()));
  EXPECT_TRUE(is_connected(GraphBuilder(0).build()));
  EXPECT_FALSE(is_connected(GraphBuilder(2).build()));
}

TEST(InducedSubgraph, KeepsInternalEdges) {
  const Graph g = complete_graph(5);
  const auto sub = induced_subgraph(g, {0, 2, 4});
  EXPECT_EQ(sub.graph.num_vertices(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);  // triangle among kept vertices
  EXPECT_EQ(sub.to_old.size(), 3u);
  EXPECT_EQ(sub.to_new[0], 0u);
  EXPECT_EQ(sub.to_new[2], 1u);
  EXPECT_EQ(sub.to_new[4], 2u);
  EXPECT_EQ(sub.to_new[1], kNoVertex);
}

TEST(InducedSubgraph, RejectsDuplicates) {
  const Graph g = complete_graph(3);
  EXPECT_THROW((void)induced_subgraph(g, {0, 0}), std::invalid_argument);
}

TEST(LargestComponent, PicksBiggest) {
  GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(3, 4);
  const Graph g = b.build();
  const auto sub = largest_component(g);
  EXPECT_EQ(sub.graph.num_vertices(), 3u);
  EXPECT_TRUE(is_connected(sub.graph));
}

TEST(IsTree, PositiveAndNegative) {
  EXPECT_TRUE(is_tree(path_graph(5)));
  EXPECT_TRUE(is_tree(star_graph(6)));
  EXPECT_FALSE(is_tree(cycle_graph(4)));
  GraphBuilder b(2);
  b.add_edge(0, 0);  // loop, n-1 edges but not a tree
  EXPECT_FALSE(is_tree(b.build()));
  EXPECT_FALSE(is_tree(GraphBuilder(2).build()));  // disconnected
}

TEST(IsRecursiveTree, MoriTreesPass) {
  for (const double p : {0.0, 0.25, 0.5, 0.75}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      sfs::rng::Rng rng(seed);
      const sfs::gen::MoriParams params{p};
      EXPECT_TRUE(is_recursive_tree(sfs::gen::mori_tree(300, params, rng)))
          << "p=" << p << " seed=" << seed;
      // m = 1 merging keeps the tree: the e1 grid's graph.
      EXPECT_TRUE(is_recursive_tree(
          sfs::gen::merged_mori_graph(300, 1, params, rng)))
          << "p=" << p << " seed=" << seed;
    }
  }
  EXPECT_TRUE(is_recursive_tree(GraphBuilder(1).build()));
  EXPECT_TRUE(is_recursive_tree(path_graph(5)));
  EXPECT_TRUE(is_recursive_tree(star_graph(6)));
}

TEST(IsRecursiveTree, OtherGraphsFail) {
  // A relabelled tree: reversing the ids keeps it a tree, but the old
  // root becomes the youngest vertex, and its children, all older now,
  // are two or more older neighbours of one vertex.
  sfs::rng::Rng rng(3);
  const Graph tree = sfs::gen::mori_tree(50, sfs::gen::MoriParams{0.5}, rng);
  ASSERT_GE(tree.degree(0), 2u);
  GraphBuilder reversed(50);
  for (const auto& e : tree.edges()) {
    reversed.add_edge(49 - e.tail, 49 - e.head);
  }
  const Graph relabelled = reversed.build();
  EXPECT_TRUE(is_tree(relabelled));
  EXPECT_FALSE(is_recursive_tree(relabelled));

  // n - 1 edges: a triangle plus a separate edge.
  GraphBuilder split(5);
  split.add_edge(1, 2);
  split.add_edge(2, 3);
  split.add_edge(3, 1);
  split.add_edge(0, 4);
  const Graph cycle_and_edge = split.build();
  ASSERT_EQ(cycle_and_edge.num_edges(), 4u);
  EXPECT_FALSE(is_recursive_tree(cycle_and_edge));

  // n - 1 edges with a self-loop: the loop is no older neighbour.
  GraphBuilder looped(3);
  looped.add_edge(1, 0);
  looped.add_edge(2, 2);
  EXPECT_FALSE(is_recursive_tree(looped.build()));

  // A recursive tree plus a loop, and plus a parallel edge.
  GraphBuilder extra_loop(3);
  extra_loop.add_edge(1, 0);
  extra_loop.add_edge(2, 1);
  extra_loop.add_edge(0, 0);
  EXPECT_FALSE(is_recursive_tree(extra_loop.build()));
  GraphBuilder parallel(2);
  parallel.add_edge(1, 0);
  parallel.add_edge(1, 0);
  EXPECT_FALSE(is_recursive_tree(parallel.build()));

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sfs::rng::Rng merged_rng(seed);
    EXPECT_FALSE(is_recursive_tree(sfs::gen::merged_mori_graph(
        300, 2, sfs::gen::MoriParams{0.5}, merged_rng)))
        << "seed=" << seed;
  }
  EXPECT_FALSE(is_recursive_tree(cycle_graph(4)));
  EXPECT_FALSE(is_recursive_tree(GraphBuilder(0).build()));
  EXPECT_FALSE(is_recursive_tree(GraphBuilder(2).build()));
}

TEST(PseudoDiameter, ExactOnPath) {
  EXPECT_EQ(pseudo_diameter(path_graph(9), 4), 8u);
}

TEST(PseudoDiameter, StarIsTwo) {
  EXPECT_EQ(pseudo_diameter(star_graph(10), 3), 2u);
}

TEST(SampleDistances, CompleteGraphAllOnes) {
  const Graph g = complete_graph(6);
  sfs::rng::Rng rng(1);
  const auto st = sample_distances(g, 10, rng);
  EXPECT_DOUBLE_EQ(st.mean_distance, 1.0);
  EXPECT_DOUBLE_EQ(st.mean_eccentricity, 1.0);
  EXPECT_EQ(st.max_observed, 1u);
}

TEST(SampleDistances, PathMeanReasonable) {
  const Graph g = path_graph(11);
  sfs::rng::Rng rng(2);
  const auto st = sample_distances(g, 50, rng);
  EXPECT_GT(st.mean_distance, 2.0);
  EXPECT_LT(st.mean_distance, 7.0);
  EXPECT_GE(st.max_observed, 5u);
  EXPECT_LE(st.max_observed, 10u);
}

}  // namespace

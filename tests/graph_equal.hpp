// Field-by-field Graph equality for tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/graph.hpp"

namespace sfs::test {

/// Expects equal edge records, incidence and adjacency spans, and in- and
/// out-degrees. The edge records in construction order determine the whole
/// CSR, but the derived structure is audited too.
inline void expect_graph_equal(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const auto ea = a.edges();
  const auto eb = b.edges();
  EXPECT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin()));
  for (graph::VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto ia = a.incident(v);
    const auto ib = b.incident(v);
    ASSERT_EQ(ia.size(), ib.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin()))
        << "vertex " << v;
    const auto aa = a.adjacent(v);
    const auto ab = b.adjacent(v);
    EXPECT_TRUE(std::equal(aa.begin(), aa.end(), ab.begin()))
        << "vertex " << v;
    EXPECT_EQ(a.in_degree(v), b.in_degree(v)) << "vertex " << v;
    EXPECT_EQ(a.out_degree(v), b.out_degree(v)) << "vertex " << v;
  }
}

}  // namespace sfs::test

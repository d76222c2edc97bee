// Tests for edge-list serialization.
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/builder.hpp"

namespace {

using sfs::graph::from_string;
using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::read_edge_list;
using sfs::graph::to_string;

Graph sample() {
  GraphBuilder b(4);
  b.add_edge(1, 0);
  b.add_edge(2, 0);
  b.add_edge(3, 1);
  b.add_edge(3, 3);  // loop survives round-trip
  return b.build();
}

TEST(Io, RoundTripPreservesEverything) {
  const Graph g = sample();
  const Graph h = from_string(to_string(g));
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (sfs::graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.edge(e).tail, g.edge(e).tail);
    EXPECT_EQ(h.edge(e).head, g.edge(e).head);
  }
}

TEST(Io, FormatIsStable) {
  const std::string text = to_string(sample());
  EXPECT_EQ(text,
            "sfsearch-graph v1\n"
            "4 4\n"
            "1 0\n"
            "2 0\n"
            "3 1\n"
            "3 3\n");
}

TEST(Io, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# leading comment\n"
      "sfsearch-graph v1\n"
      "\n"
      "2 1   # header trailing comment\n"
      "  0 1  \n";
  const Graph g = from_string(text);
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Io, RejectsBadMagic) {
  EXPECT_THROW((void)from_string("bogus v9\n1 0\n"), std::invalid_argument);
}

TEST(Io, RejectsTruncatedEdgeList) {
  EXPECT_THROW((void)from_string("sfsearch-graph v1\n2 2\n0 1\n"),
               std::invalid_argument);
}

TEST(Io, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW((void)from_string("sfsearch-graph v1\n2 1\n0 2\n"),
               std::invalid_argument);
}

TEST(Io, RejectsMalformedHeader) {
  EXPECT_THROW((void)from_string("sfsearch-graph v1\nnot numbers\n"),
               std::invalid_argument);
}

// Hostile numbers and framing must raise a checked error, never load as
// some other graph or reach an unchecked allocation.
TEST(Io, RejectsNegativeEndpoint) {
  // A sign must not wrap to a valid id (here 1).
  EXPECT_THROW(
      (void)from_string("sfsearch-graph v1\n2 1\n0 -18446744073709551615\n"),
      std::invalid_argument);
}

TEST(Io, RejectsNegativeVertexCount) {
  // A sign must not wrap to a valid count (here 3).
  EXPECT_THROW(
      (void)from_string("sfsearch-graph v1\n-18446744073709551613 1\n0 1\n"),
      std::invalid_argument);
}

TEST(Io, RejectsEdgesBeyondTheDeclaredCount) {
  EXPECT_THROW(
      (void)from_string("sfsearch-graph v1\n3 1\n0 1\n1 2\n2 0\n"),
      std::invalid_argument);
}

TEST(Io, RejectsTrailingTokens) {
  EXPECT_THROW((void)from_string("sfsearch-graph v1\n2 1\n0 1 junk\n"),
               std::invalid_argument);
  EXPECT_THROW((void)from_string("sfsearch-graph v1\n2 1\n0 1junk\n"),
               std::invalid_argument);
  EXPECT_THROW((void)from_string("sfsearch-graph v1\n2 1 7\n0 1\n"),
               std::invalid_argument);
}

TEST(Io, RejectsEdgeCountBeyondEdgeIdBeforeAllocating) {
  // Checked before anything is sized from the header.
  EXPECT_THROW(
      (void)from_string("sfsearch-graph v1\n2 18446744073709551615\n0 1\n"),
      std::invalid_argument);
}

TEST(Io, LargeVertexCountWithFewEdgesIsValid) {
  // The format allows isolated vertices, so n alone is not capped.
  const Graph g = from_string(
      "sfsearch-graph v1\n100000 1\n0 99999\n# trailing comment\n\n");
  EXPECT_EQ(g.num_vertices(), 100000u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Io, RejectsEmptyInput) {
  EXPECT_THROW((void)from_string(""), std::invalid_argument);
}

TEST(Io, EmptyGraphRoundTrips) {
  const Graph g = GraphBuilder(0).build();
  const Graph h = from_string(to_string(g));
  EXPECT_EQ(h.num_vertices(), 0u);
  EXPECT_EQ(h.num_edges(), 0u);
}

TEST(Io, FileSaveLoad) {
  const Graph g = sample();
  const std::string path = testing::TempDir() + "/sfs_io_test.graph";
  sfs::graph::save(path, g);
  const Graph h = sfs::graph::load(path);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
}

TEST(Io, LoadMissingFileThrows) {
  EXPECT_THROW((void)sfs::graph::load("/nonexistent/dir/x.graph"),
               std::runtime_error);
}

}  // namespace

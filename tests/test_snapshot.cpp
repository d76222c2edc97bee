// Tests for the mmap-able snapshot format (graph/snapshot.hpp): write →
// map round-trips, and every failure path (truncated file, flipped payload
// byte, bad magic / version / endianness / row codec, mid-write interrupt
// fragment, cache identity collision) is rejected with a context-carrying
// error instead of decoding garbage.
#include "graph/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "graph/builder.hpp"

namespace {

using sfs::graph::AdjacencyDecodeBuffer;
using sfs::graph::CompressedGraph;
using sfs::graph::Graph;
using sfs::graph::MappedSnapshot;
using sfs::graph::SnapshotMeta;
using sfs::graph::VertexId;
using sfs::rng::Rng;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

Graph make_graph() {
  Rng rng(0xBEEF);
  return sfs::gen::barabasi_albert(200, {.m = 3}, rng);
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

/// Writes a fresh valid snapshot of the shared test graph and returns its
/// path; `mutate` then gets to corrupt the raw bytes before mapping.
template <typename MutateFn>
std::string corrupted_snapshot(const std::string& name, MutateFn&& mutate) {
  const std::string path = temp_path(name);
  const Graph g = make_graph();
  const CompressedGraph c = CompressedGraph::from_graph(g);
  sfs::graph::write_snapshot(path, c.view(), {.generator = "ba_m3", .seed = 1});
  std::vector<char> bytes = read_file(path);
  mutate(bytes);
  write_file(path, bytes);
  return path;
}

// ------------------------------------------------------------ round trip

TEST(Snapshot, WriteThenMapRoundTrips) {
  const Graph g = make_graph();
  const std::string path = temp_path("rt_varint.sfsnap");
  const CompressedGraph c = CompressedGraph::from_graph(g);
  const SnapshotMeta meta{.generator = "ba_m3", .seed = 0xABCDEF};
  sfs::graph::write_snapshot(path, c.view(), meta);

  const MappedSnapshot snap(path);
  EXPECT_EQ(snap.meta().generator, meta.generator);
  EXPECT_EQ(snap.meta().seed, meta.seed);
  ASSERT_EQ(snap.view().num_vertices, g.num_vertices());
  ASSERT_EQ(snap.view().num_edges, g.num_edges());

  // Decode straight off the mapping: every row matches the source graph.
  AdjacencyDecodeBuffer buffer;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto row = sfs::graph::decode_adjacent(snap.view(), v, buffer);
    const auto expected = g.adjacent(v);
    ASSERT_EQ(row.size(), expected.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(row.begin(), row.end(), expected.begin()));
  }
  // And the full decompression reproduces the edge log bit-exactly.
  const Graph back = sfs::graph::decompress(snap.view());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  const auto ea = g.edges();
  const auto eb = back.edges();
  EXPECT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin()));
}

TEST(Snapshot, MoveTransfersTheMapping) {
  const std::string path = temp_path("move.sfsnap");
  const CompressedGraph c = CompressedGraph::from_graph(make_graph());
  sfs::graph::write_snapshot(path, c.view(), {.generator = "ba_m3", .seed = 2});
  MappedSnapshot a(path);
  const std::size_t n = a.view().num_vertices;
  MappedSnapshot b(std::move(a));
  EXPECT_EQ(b.view().num_vertices, n);
  AdjacencyDecodeBuffer buffer;
  EXPECT_EQ(sfs::graph::decode_adjacent(b.view(), 0, buffer).size(),
            sfs::graph::decoded_degree(b.view(), 0));
}

// ---------------------------------------------------------- failure paths

TEST(SnapshotFailure, RejectsMissingFile) {
  EXPECT_THROW(MappedSnapshot(temp_path("nope.sfsnap")), std::runtime_error);
}

TEST(SnapshotFailure, RejectsTruncatedFile) {
  // Both below-header truncation and mid-payload truncation (the shape a
  // non-atomic writer would leave after a mid-write interrupt).
  for (const double keep : {0.1, 0.6, 0.98}) {
    const std::string path = corrupted_snapshot(
        "trunc.sfsnap", [keep](std::vector<char>& bytes) {
          bytes.resize(static_cast<std::size_t>(
              static_cast<double>(bytes.size()) * keep));
        });
    EXPECT_THROW(MappedSnapshot{path}, std::invalid_argument) << keep;
  }
}

TEST(SnapshotFailure, RejectsFlippedPayloadByte) {
  const std::string path = corrupted_snapshot(
      "checksum.sfsnap",
      [](std::vector<char>& bytes) { bytes[bytes.size() - 1] ^= 0x40; });
  try {
    MappedSnapshot snap(path);
    FAIL() << "corrupt payload accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("checksum.sfsnap"),
              std::string::npos)
        << "error must carry the offending path: " << e.what();
  }
}

TEST(SnapshotFailure, RejectsBadMagic) {
  const std::string path = corrupted_snapshot(
      "magic.sfsnap", [](std::vector<char>& bytes) { bytes[0] ^= 0x01; });
  EXPECT_THROW(MappedSnapshot{path}, std::invalid_argument);
}

TEST(SnapshotFailure, RejectsFutureVersion) {
  const std::string path = corrupted_snapshot(
      "version.sfsnap", [](std::vector<char>& bytes) { bytes[8] += 1; });
  try {
    MappedSnapshot snap(path);
    FAIL() << "future version accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotFailure, RejectsForeignEndianness) {
  // Byte-swap the endian marker word: exactly what the header of a
  // big-endian-written snapshot would look like here.
  const std::string path = corrupted_snapshot(
      "endian.sfsnap", [](std::vector<char>& bytes) {
        std::reverse(bytes.begin() + 16, bytes.begin() + 24);
      });
  try {
    MappedSnapshot snap(path);
    FAIL() << "foreign-endian snapshot accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("endian"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotFailure, RejectsUnknownRowCodec) {
  // Header word 6 holds the row codec, and varint (0) is the only one. 1
  // is the id older writers gave per-row Elias-Fano rows: a cached
  // snapshot in that format must be rejected, never decoded as varint.
  for (const char codec : {'\x01', '\x7f'}) {
    const std::string path = corrupted_snapshot(
        "codec.sfsnap",
        [codec](std::vector<char>& bytes) { bytes[48] = codec; });
    try {
      MappedSnapshot snap(path);
      FAIL() << "row codec " << int{codec} << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown row codec"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SnapshotFailure, InterruptedWriteLeavesNoSnapshot) {
  // The writer goes through "<path>.tmp" + rename. A leftover fragment at
  // the tmp path (a genuinely interrupted write) must neither be visible
  // at the final path nor break the next successful write.
  const std::string path = temp_path("interrupt.sfsnap");
  std::remove(path.c_str());
  write_file(path + ".tmp", {'p', 'a', 'r', 't', 'i', 'a', 'l'});
  EXPECT_THROW(MappedSnapshot{path}, std::runtime_error);  // nothing at path

  const CompressedGraph c = CompressedGraph::from_graph(make_graph());
  sfs::graph::write_snapshot(path, c.view(),
                             {.generator = "ba_m3", .seed = 3});
  const MappedSnapshot snap(path);  // fresh write is fully valid
  EXPECT_EQ(snap.meta().seed, 3u);
  // And the successful write consumed its tmp file.
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
}

// ------------------------------------------------------------------ cache

TEST(SnapshotCache, PathIsDeterministic) {
  const SnapshotMeta meta{.generator = "mori_m1", .seed = 0x1A26E1};
  EXPECT_EQ(sfs::graph::snapshot_cache_path("/tmp/cache", meta, 4096),
            "/tmp/cache/mori_m1-n4096-s1a26e1.sfsnap");
  EXPECT_EQ(sfs::graph::snapshot_cache_path("/tmp/cache/", meta, 4096),
            "/tmp/cache/mori_m1-n4096-s1a26e1.sfsnap");
}

TEST(SnapshotCache, BuildsOnceThenMapsFromDisk) {
  const Graph g = make_graph();
  const SnapshotMeta meta{.generator = "ba_m3", .seed = 7};
  const std::string path = temp_path("cache.sfsnap");
  std::remove(path.c_str());
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return CompressedGraph::from_graph(g);
  };
  const MappedSnapshot first = sfs::graph::load_or_write_snapshot(
      path, meta, g.num_vertices(), build);
  const MappedSnapshot second = sfs::graph::load_or_write_snapshot(
      path, meta, g.num_vertices(), build);
  EXPECT_EQ(builds, 1) << "cache hit must not rebuild";
  EXPECT_EQ(first.view().num_edges, second.view().num_edges);
  AdjacencyDecodeBuffer buffer;
  const auto row = sfs::graph::decode_adjacent(second.view(), 5, buffer);
  const auto expected = g.adjacent(5);
  EXPECT_TRUE(std::equal(row.begin(), row.end(), expected.begin()));
}

TEST(SnapshotCache, IdentityCollisionIsRejected) {
  const Graph g = make_graph();
  const std::string path = temp_path("collide.sfsnap");
  std::remove(path.c_str());
  const auto build = [&] { return CompressedGraph::from_graph(g); };
  (void)sfs::graph::load_or_write_snapshot(
      path, {.generator = "ba_m3", .seed = 11}, g.num_vertices(), build);
  // Same path, different seed: must throw, never silently reuse.
  EXPECT_THROW((void)sfs::graph::load_or_write_snapshot(
                   path, {.generator = "ba_m3", .seed = 12},
                   g.num_vertices(), build),
               std::invalid_argument);
  // Different generator name too.
  EXPECT_THROW((void)sfs::graph::load_or_write_snapshot(
                   path, {.generator = "mori", .seed = 11}, g.num_vertices(),
                   build),
               std::invalid_argument);
}

TEST(SnapshotFailure, RejectsOverlongGeneratorName) {
  const CompressedGraph c = CompressedGraph::from_graph(make_graph());
  EXPECT_THROW(
      sfs::graph::write_snapshot(
          temp_path("long.sfsnap"), c.view(),
          {.generator = std::string(40, 'x'), .seed = 1}),
      std::invalid_argument);
}

}  // namespace

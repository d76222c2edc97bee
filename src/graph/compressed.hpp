// Compressed CSR: the out-of-core graph substrate (docs/PERF.md
// "Out-of-core & sharded scale").
//
// A CompressedGraph is an immutable, byte-compressed encoding of a Graph
// targeting 4-8x less memory than the uncompressed CSR, so the scaling
// sweeps and the lookup-service scenarios can hold graphs with tens of
// millions of vertices in RAM (and map them read-only from disk via
// graph/snapshot.hpp). Three ideas carry the whole design:
//
//  1. The adjacency rows are stored compressed but *exactly*: for every
//     vertex, decode_adjacent() reproduces Graph::adjacent(v) slot for
//     slot (same multiset, same order), into a caller-owned
//     AdjacencyDecodeBuffer — the per-worker buffer in sim::WorkerContext
//     keeps search hot loops zero-alloc.
//  2. The construction-order edge log is NOT stored twice. Only the tail
//     sequence is kept (delta-compressed; near-free for growth models,
//     whose tails are non-decreasing): because every incidence row lists
//     its slots in edge-id order, replaying the tails against per-row
//     cursors recovers each edge's head from the adjacency payload, and
//     decompress() rebuilds the original Graph through GraphBuilder —
//     bit-exact by construction, for every generator.
//  3. The two monotone offset sequences (cumulative degrees and row byte
//     offsets) are Elias-Fano encoded with select sampling, so random row
//     access stays O(1)-ish at ~3-5 bits per vertex instead of 64.
//
// Each row is stored as byte-aligned zigzag varint deltas in slot order,
// the first slot relative to the row's vertex id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace sfs::graph {

// ------------------------------------------------------------- Elias-Fano

/// Non-owning decoder over an Elias-Fano encoded non-decreasing sequence.
/// The owning encoder (EliasFanoSequence) and the mmap'd snapshot both
/// expose one of these; all random access goes through get().
struct EliasFanoView {
  std::size_t count = 0;       // number of encoded values
  std::uint64_t universe = 0;  // upper bound: every value <= universe
  std::uint32_t low_bits = 0;  // split: value = (high << low_bits) | low
  std::span<const std::uint64_t> low_words;   // packed low halves
  std::span<const std::uint64_t> high_words;  // unary-coded high halves
  std::span<const std::uint64_t> samples;     // select-1 samples

  /// The i-th encoded value. Requires i < count. O(1) amortized: a select
  /// sample every kEfSampleRate set bits bounds the popcount scan.
  [[nodiscard]] std::uint64_t get(std::size_t i) const;

  /// Bytes referenced by the three word spans (excludes this struct).
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return (low_words.size() + high_words.size() + samples.size()) *
           sizeof(std::uint64_t);
  }
};

/// One select sample per this many set bits of the high bitmap.
inline constexpr std::size_t kEfSampleRate = 256;

/// Owning Elias-Fano sequence: encode once, then read through view().
class EliasFanoSequence {
 public:
  EliasFanoSequence() = default;

  /// Encodes `values`, which must be non-decreasing.
  [[nodiscard]] static EliasFanoSequence encode(
      std::span<const std::uint64_t> values);

  [[nodiscard]] EliasFanoView view() const noexcept {
    return {count_, universe_, low_bits_, low_words_, high_words_, samples_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t get(std::size_t i) const { return view().get(i); }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return sizeof(*this) + view().payload_bytes();
  }

 private:
  std::size_t count_ = 0;
  std::uint64_t universe_ = 0;
  std::uint32_t low_bits_ = 0;
  std::vector<std::uint64_t> low_words_;
  std::vector<std::uint64_t> high_words_;
  std::vector<std::uint64_t> samples_;
};

// -------------------------------------------------------- compressed view

/// Non-owning view of a compressed graph: the shared decode surface of
/// the in-memory CompressedGraph and the mmap'd snapshot
/// (graph/snapshot.hpp). Spans must outlive the view.
struct CompressedView {
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
  /// Zigzag varint deltas of the edge-log tail sequence (construction
  /// order; first delta relative to 0).
  std::span<const std::uint8_t> tail_stream;
  /// Concatenated varint-encoded adjacency rows, one per vertex.
  std::span<const std::uint8_t> adj_stream;
  /// Cumulative undirected degrees: n+1 values, last == 2m. Equals the
  /// uncompressed CSR's offsets_ array, Elias-Fano encoded.
  EliasFanoView degree_offsets;
  /// Byte offset of each row in adj_stream: n+1 values, last == size.
  EliasFanoView row_offsets;
};

/// Scratch for decode_adjacent: reused across calls so row decoding in
/// search hot paths allocates only until the high-water degree is reached.
/// One per worker (sim::WorkerContext) — not thread-safe.
struct AdjacencyDecodeBuffer {
  std::vector<VertexId> slots;  // decoded row, slot order
};

/// Decodes the incidence row of `v` into `buffer` and returns a span over
/// it: element i is Graph::adjacent(v)[i], bit for bit. The span is valid
/// until the next decode into the same buffer.
[[nodiscard]] std::span<const VertexId> decode_adjacent(
    const CompressedView& view, VertexId v, AdjacencyDecodeBuffer& buffer);

/// Undirected degree of `v` (== Graph::degree(v)); no row decode.
[[nodiscard]] std::size_t decoded_degree(const CompressedView& view,
                                         VertexId v);

/// Rebuilds the original Graph: decodes every row, replays the tail
/// stream against per-row cursors to recover each edge's head, and packs
/// through GraphBuilder — so the result is bit-identical to the Graph the
/// view was compressed from (edge log, CSR arrays, degree vectors).
[[nodiscard]] Graph decompress(const CompressedView& view);

// ------------------------------------------------------- compressed graph

/// Owning compressed encoding of a Graph. Immutable once built.
class CompressedGraph {
 public:
  CompressedGraph() = default;

  /// Compresses `g`. The encoding is deterministic: equal graphs yield
  /// byte-identical streams (snapshots of the same (generator, n, seed)
  /// are reproducible artifacts).
  [[nodiscard]] static CompressedGraph from_graph(const Graph& g);

  [[nodiscard]] std::size_t num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return m_; }

  /// Decode surface shared with mmap'd snapshots; valid while *this lives.
  [[nodiscard]] CompressedView view() const noexcept;

  [[nodiscard]] std::size_t degree(VertexId v) const {
    return decoded_degree(view(), v);
  }
  [[nodiscard]] std::span<const VertexId> adjacent(
      VertexId v, AdjacencyDecodeBuffer& buffer) const {
    return decode_adjacent(view(), v, buffer);
  }
  [[nodiscard]] Graph decompress() const { return graph::decompress(view()); }

  /// Heap bytes held by the compressed representation (streams + both
  /// Elias-Fano sequences + fixed fields). The m6 ratio denominator.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::vector<std::uint8_t> tail_stream_;
  std::vector<std::uint8_t> adj_stream_;
  EliasFanoSequence degree_offsets_;
  EliasFanoSequence row_offsets_;
};

/// Heap bytes of the uncompressed Graph representation (size-based, not
/// capacity-based): edge records + CSR offsets/incidence/far-endpoint
/// arrays + degree vectors. The m6 ratio numerator.
[[nodiscard]] std::size_t graph_memory_bytes(const Graph& g) noexcept;

}  // namespace sfs::graph

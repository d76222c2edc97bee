#include "graph/compressed.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>

#include "base/check.hpp"
#include "graph/builder.hpp"

namespace sfs::graph {

namespace {

// ------------------------------------------------------ varint primitives

void append_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t read_varint(const std::uint8_t*& p, const std::uint8_t* end) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    SFS_CHECK(p != end, "compressed stream: truncated varint");
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::uint64_t zigzag(std::int64_t x) {
  return (static_cast<std::uint64_t>(x) << 1) ^
         static_cast<std::uint64_t>(x >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// ------------------------------------------------- word-level bit reading

std::uint64_t get_word_bits(std::span<const std::uint64_t> words,
                            std::size_t bit_pos, unsigned width) {
  if (width == 0) return 0;
  const std::size_t w = bit_pos >> 6;
  const unsigned off = bit_pos & 63u;
  std::uint64_t v = words[w] >> off;
  if (off + width > 64) v |= words[w + 1] << (64u - off);
  return v & ((1ULL << width) - 1);
}

/// Position of the k-th (0-indexed) set bit of `word`. Requires popcount
/// of `word` > k.
unsigned select_in_u64(std::uint64_t word, unsigned k) {
  while (k--) word &= word - 1;
  return static_cast<unsigned>(std::countr_zero(word));
}

/// `floor(log2(universe / count))`, the canonical Elias-Fano low-bit
/// split, clamped to 0 for dense sequences.
unsigned ef_low_bits(std::uint64_t universe, std::size_t count) {
  if (count == 0) return 0;
  const std::uint64_t ratio = universe / count;
  return ratio == 0 ? 0u : static_cast<unsigned>(std::bit_width(ratio)) - 1u;
}

// ------------------------------------------------------------ varint rows

void encode_row_varint(std::vector<std::uint8_t>& out, VertexId v,
                       std::span<const VertexId> slots) {
  std::int64_t prev = static_cast<std::int64_t>(v);
  for (const VertexId s : slots) {
    append_varint(out, zigzag(static_cast<std::int64_t>(s) - prev));
    prev = static_cast<std::int64_t>(s);
  }
}

void decode_row_varint(const std::uint8_t* p, const std::uint8_t* end,
                       VertexId v, std::size_t deg, VertexId* out) {
  std::int64_t prev = static_cast<std::int64_t>(v);
  for (std::size_t k = 0; k < deg; ++k) {
    prev += unzigzag(read_varint(p, end));
    out[k] = static_cast<VertexId>(prev);
  }
  SFS_CHECK(p == end, "compressed row: varint decode did not consume the row");
}

}  // namespace

// --------------------------------------------------------- EliasFanoView

std::uint64_t EliasFanoView::get(std::size_t i) const {
  SFS_REQUIRE(i < count, "Elias-Fano index out of range");
  // select1(i) over the high bitmap, starting from the nearest sample.
  std::size_t word_idx = 0;
  std::size_t need = i;
  std::uint64_t word = 0;
  if (!samples.empty()) {
    const std::size_t j = i / kEfSampleRate;
    const std::uint64_t sample_pos = samples[j];
    word_idx = static_cast<std::size_t>(sample_pos >> 6);
    word = high_words[word_idx] &
           (~0ULL << static_cast<unsigned>(sample_pos & 63u));
    need = i - j * kEfSampleRate;
  } else {
    word = high_words.empty() ? 0 : high_words[0];
  }
  for (;;) {
    const unsigned pc = static_cast<unsigned>(std::popcount(word));
    if (need < pc) break;
    need -= pc;
    ++word_idx;
    word = high_words[word_idx];
  }
  const std::uint64_t select_pos =
      (static_cast<std::uint64_t>(word_idx) << 6) +
      select_in_u64(word, static_cast<unsigned>(need));
  const std::uint64_t high = select_pos - i;
  return (high << low_bits) |
         get_word_bits(low_words, static_cast<std::size_t>(i) * low_bits,
                       low_bits);
}

// ----------------------------------------------------- EliasFanoSequence

EliasFanoSequence EliasFanoSequence::encode(
    std::span<const std::uint64_t> values) {
  EliasFanoSequence seq;
  seq.count_ = values.size();
  if (values.empty()) return seq;
  seq.universe_ = values.back();
  seq.low_bits_ = ef_low_bits(seq.universe_, seq.count_);
  const unsigned l = seq.low_bits_;

  const std::size_t low_total_bits = values.size() * l;
  seq.low_words_.assign((low_total_bits + 63) / 64, 0);
  const std::uint64_t high_bits =
      values.size() + (seq.universe_ >> l) + 1;
  seq.high_words_.assign(static_cast<std::size_t>((high_bits + 63) / 64), 0);
  seq.samples_.reserve(values.size() / kEfSampleRate + 1);

  std::uint64_t prev = 0;
  for (std::size_t k = 0; k < values.size(); ++k) {
    const std::uint64_t v = values[k];
    SFS_REQUIRE(v >= prev, "Elias-Fano input must be non-decreasing");
    prev = v;
    if (l > 0) {
      const std::size_t bit_pos = k * l;
      const std::uint64_t low = v & ((1ULL << l) - 1);
      const std::size_t w = bit_pos >> 6;
      const unsigned off = bit_pos & 63u;
      seq.low_words_[w] |= low << off;
      if (off + l > 64) seq.low_words_[w + 1] |= low >> (64u - off);
    }
    const std::uint64_t pos = (v >> l) + k;
    seq.high_words_[pos >> 6] |= 1ULL << (pos & 63u);
    if (k % kEfSampleRate == 0) seq.samples_.push_back(pos);
  }
  return seq;
}

// ------------------------------------------------------------ decode API

std::size_t decoded_degree(const CompressedView& view, VertexId v) {
  SFS_REQUIRE(v < view.num_vertices, "vertex id out of range");
  return static_cast<std::size_t>(view.degree_offsets.get(v + 1) -
                                  view.degree_offsets.get(v));
}

std::span<const VertexId> decode_adjacent(const CompressedView& view,
                                          VertexId v,
                                          AdjacencyDecodeBuffer& buffer) {
  SFS_REQUIRE(v < view.num_vertices, "vertex id out of range");
  const std::size_t deg = decoded_degree(view, v);
  if (buffer.slots.size() < deg) buffer.slots.resize(deg);
  const std::size_t row_begin =
      static_cast<std::size_t>(view.row_offsets.get(v));
  const std::size_t row_end =
      static_cast<std::size_t>(view.row_offsets.get(v + 1));
  SFS_CHECK(row_begin <= row_end && row_end <= view.adj_stream.size(),
            "compressed row: byte range out of bounds");
  const std::uint8_t* p = view.adj_stream.data() + row_begin;
  const std::uint8_t* end = view.adj_stream.data() + row_end;
  if (deg == 0) {
    SFS_CHECK(p == end, "compressed row: empty row has payload bytes");
    return {buffer.slots.data(), 0};
  }
  decode_row_varint(p, end, v, deg, buffer.slots.data());
  return {buffer.slots.data(), deg};
}

Graph decompress(const CompressedView& view) {
  const std::size_t n = view.num_vertices;
  const std::size_t m = view.num_edges;
  validate_edge_capacity(m);

  // Materialize the degree offsets once, decode every row into one flat
  // 2m-slot array, then replay the tail stream against per-row cursors:
  // edge e's slot in its tail row is always the next unconsumed one
  // (incidence rows are ordered by edge id), which yields the head; the
  // matching head-row slot is consumed to keep the cursors aligned.
  std::vector<std::size_t> offsets(n + 1);
  for (std::size_t v = 0; v <= n; ++v) {
    offsets[v] = static_cast<std::size_t>(view.degree_offsets.get(v));
  }
  SFS_CHECK(offsets[n] == 2 * m,
            "compressed graph: degree offsets disagree with edge count");

  std::vector<VertexId> adj(2 * m);
  AdjacencyDecodeBuffer buffer;
  for (std::size_t v = 0; v < n; ++v) {
    const auto row =
        decode_adjacent(view, static_cast<VertexId>(v), buffer);
    std::copy(row.begin(), row.end(), adj.begin() + offsets[v]);
  }

  std::vector<std::size_t> cursor(offsets.begin(), offsets.begin() + n);
  GraphBuilder builder(n);
  builder.reserve_edges(m);
  const std::uint8_t* p = view.tail_stream.data();
  const std::uint8_t* end = p + view.tail_stream.size();
  std::int64_t prev = 0;
  for (std::size_t e = 0; e < m; ++e) {
    prev += unzigzag(read_varint(p, end));
    SFS_CHECK(prev >= 0 && static_cast<std::size_t>(prev) < n,
              "compressed graph: tail id out of range");
    const VertexId tail = static_cast<VertexId>(prev);
    SFS_CHECK(cursor[tail] < offsets[tail + 1],
              "compressed graph: tail row exhausted during replay");
    const VertexId head = adj[cursor[tail]++];
    if (head == tail) {
      // A self-loop occupies two consecutive slots of its vertex's row.
      SFS_CHECK(cursor[tail] < offsets[tail + 1] && adj[cursor[tail]] == tail,
                "compressed graph: broken self-loop slot pair");
      ++cursor[tail];
    } else {
      SFS_CHECK(cursor[head] < offsets[head + 1] && adj[cursor[head]] == tail,
                "compressed graph: head row disagrees with tail stream");
      ++cursor[head];
    }
    builder.add_edge(tail, head);
  }
  SFS_CHECK(p == end, "compressed graph: tail stream not fully consumed");
  for (std::size_t v = 0; v < n; ++v) {
    SFS_CHECK(cursor[v] == offsets[v + 1],
              "compressed graph: unconsumed incidence slots after replay");
  }
  return builder.build();
}

// ------------------------------------------------------- CompressedGraph

CompressedGraph CompressedGraph::from_graph(const Graph& g) {
  CompressedGraph c;
  c.n_ = g.num_vertices();
  c.m_ = g.num_edges();

  c.tail_stream_.reserve(c.m_ + c.m_ / 8);
  std::int64_t prev = 0;
  for (const Edge& e : g.edges()) {
    append_varint(c.tail_stream_,
                  zigzag(static_cast<std::int64_t>(e.tail) - prev));
    prev = static_cast<std::int64_t>(e.tail);
  }

  std::vector<std::uint64_t> degree_offsets(c.n_ + 1);
  degree_offsets[0] = 0;
  for (std::size_t v = 0; v < c.n_; ++v) {
    degree_offsets[v + 1] =
        degree_offsets[v] + g.degree(static_cast<VertexId>(v));
  }
  c.degree_offsets_ = EliasFanoSequence::encode(degree_offsets);

  std::vector<std::uint64_t> row_offsets(c.n_ + 1);
  row_offsets[0] = 0;
  c.adj_stream_.reserve(2 * c.m_ + c.m_ / 4);
  for (std::size_t v = 0; v < c.n_; ++v) {
    const auto vid = static_cast<VertexId>(v);
    encode_row_varint(c.adj_stream_, vid, g.adjacent(vid));
    row_offsets[v + 1] = c.adj_stream_.size();
  }
  c.row_offsets_ = EliasFanoSequence::encode(row_offsets);
  return c;
}

CompressedView CompressedGraph::view() const noexcept {
  return {n_, m_, tail_stream_, adj_stream_, degree_offsets_.view(),
          row_offsets_.view()};
}

std::size_t CompressedGraph::memory_bytes() const noexcept {
  return sizeof(*this) + tail_stream_.size() + adj_stream_.size() +
         degree_offsets_.view().payload_bytes() +
         row_offsets_.view().payload_bytes();
}

std::size_t graph_memory_bytes(const Graph& g) noexcept {
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_edges();
  return m * sizeof(Edge)                          // edge log
         + (n != 0 ? n + 1 : 0) * sizeof(std::size_t)  // CSR offsets
         + 2 * m * sizeof(EdgeId)                  // incidence payload
         + 2 * m * sizeof(VertexId)                // far endpoint per slot
         + 2 * n * sizeof(std::uint32_t);          // in/out degree vectors
}

}  // namespace sfs::graph

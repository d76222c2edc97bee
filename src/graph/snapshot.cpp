#include "graph/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "base/check.hpp"

// Error discipline (mirrors graph/io.cpp): anything the *format* promises
// — magic, version, endianness, declared lengths, checksum, identity —
// is validated with SFS_REQUIRE, so corrupt or mismatched snapshots fail
// as std::invalid_argument with the path in the message. Only
// environmental failures (open, map, write, rename) use
// std::runtime_error, which is the documented graph I/O contract.

namespace sfs::graph {

namespace {

constexpr std::size_t kHeaderWords = 26;
constexpr std::size_t kHeaderBytes = kHeaderWords * 8;
constexpr std::size_t kGeneratorBytes = 32;
constexpr std::size_t kGeneratorWord = 8;   // header index of the name
constexpr std::size_t kChecksumWord = 3;
constexpr std::size_t kChecksumStart = 32;  // checksum covers [32, EOF)

std::size_t pad8(std::size_t x) { return (x + 7) & ~static_cast<std::size_t>(7); }

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void put_u64(std::uint8_t* base, std::size_t word, std::uint64_t value) {
  std::memcpy(base + word * 8, &value, 8);
}

std::uint64_t get_u64(const std::uint8_t* base, std::size_t word) {
  std::uint64_t value = 0;
  std::memcpy(&value, base + word * 8, 8);
  return value;
}

struct EfDescriptor {
  std::uint64_t count = 0;
  std::uint64_t universe = 0;
  std::uint64_t low_bits = 0;
  std::uint64_t low_words = 0;
  std::uint64_t high_words = 0;
  std::uint64_t samples = 0;
};

EfDescriptor describe(const EliasFanoView& v) {
  return {v.count,            v.universe,           v.low_bits,
          v.low_words.size(), v.high_words.size(),  v.samples.size()};
}

void put_descriptor(std::uint8_t* base, std::size_t word,
                    const EfDescriptor& d) {
  put_u64(base, word + 0, d.count);
  put_u64(base, word + 1, d.universe);
  put_u64(base, word + 2, d.low_bits);
  put_u64(base, word + 3, d.low_words);
  put_u64(base, word + 4, d.high_words);
  put_u64(base, word + 5, d.samples);
}

EfDescriptor get_descriptor(const std::uint8_t* base, std::size_t word) {
  return {get_u64(base, word + 0), get_u64(base, word + 1),
          get_u64(base, word + 2), get_u64(base, word + 3),
          get_u64(base, word + 4), get_u64(base, word + 5)};
}

std::size_t descriptor_word_count(const EfDescriptor& d) {
  return static_cast<std::size_t>(d.low_words + d.high_words + d.samples);
}

void append_bytes(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
  out.resize(pad8(out.size()), 0);
}

void append_words(std::vector<std::uint8_t>& out,
                  std::span<const std::uint64_t> words) {
  const auto* raw = reinterpret_cast<const std::uint8_t*>(words.data());
  out.insert(out.end(), raw, raw + words.size() * 8);
}

/// Reinterprets an 8-aligned byte range of the mapping as u64 words.
std::span<const std::uint64_t> word_span(const std::uint8_t* base,
                                         std::size_t byte_offset,
                                         std::uint64_t words,
                                         const std::string& path) {
  SFS_REQUIRE(byte_offset % 8 == 0,
              "snapshot section misaligned: " + path);
  return {reinterpret_cast<const std::uint64_t*>(base + byte_offset),
          static_cast<std::size_t>(words)};
}

}  // namespace

void write_snapshot(const std::string& path, const CompressedView& view,
                    const SnapshotMeta& meta) {
  SFS_REQUIRE(meta.generator.size() < kGeneratorBytes,
              "snapshot generator name too long: " + meta.generator);

  const EfDescriptor deg = describe(view.degree_offsets);
  const EfDescriptor row = describe(view.row_offsets);

  std::vector<std::uint8_t> buf;
  buf.resize(kHeaderBytes, 0);
  append_bytes(buf, view.tail_stream);
  append_bytes(buf, view.adj_stream);
  append_words(buf, view.degree_offsets.low_words);
  append_words(buf, view.degree_offsets.high_words);
  append_words(buf, view.degree_offsets.samples);
  append_words(buf, view.row_offsets.low_words);
  append_words(buf, view.row_offsets.high_words);
  append_words(buf, view.row_offsets.samples);

  std::uint8_t* base = buf.data();
  put_u64(base, 0, kSnapshotMagic);
  put_u64(base, 1, kSnapshotVersion);
  put_u64(base, 2, kSnapshotEndianMarker);
  put_u64(base, 4, view.num_vertices);
  put_u64(base, 5, view.num_edges);
  put_u64(base, 6, kSnapshotRowCodec);
  put_u64(base, 7, meta.seed);
  std::memcpy(base + kGeneratorWord * 8, meta.generator.data(),
              meta.generator.size());
  put_u64(base, 12, view.tail_stream.size());
  put_u64(base, 13, view.adj_stream.size());
  put_descriptor(base, 14, deg);
  put_descriptor(base, 20, row);
  put_u64(base, kChecksumWord,
          fnv1a64(base + kChecksumStart, buf.size() - kChecksumStart));

  // Write-then-rename keeps the final path atomic: a crash mid-write
  // leaves only the .tmp fragment, never a short file readers could open.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
    throw std::runtime_error("cannot open snapshot for writing: " + tmp);
  }
  const std::size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != buf.size() || !closed) {
    std::remove(tmp.c_str());
    // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
    throw std::runtime_error("short write for snapshot: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
    throw std::runtime_error("cannot rename snapshot into place: " + path);
  }
}

MappedSnapshot::MappedSnapshot(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
    throw std::runtime_error("cannot open snapshot: " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
    throw std::runtime_error("cannot stat snapshot: " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ < kHeaderBytes) {
    ::close(fd);
    SFS_REQUIRE(false, "snapshot truncated below header size: " + path);
  }
  void* mapping = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (mapping == MAP_FAILED) {
    // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
    throw std::runtime_error("cannot mmap snapshot: " + path);
  }
  data_ = static_cast<const std::uint8_t*>(mapping);
  mapped_ = true;

  // Header validation order: identity words first (cheap, and a version
  // or endianness mismatch should be reported as such rather than as a
  // checksum failure), then structural sizes, then the full checksum.
  bool ok = false;
  struct Unmapper {
    MappedSnapshot* self;
    const bool* ok;
    ~Unmapper() {
      if (!*ok) self->reset();
    }
  } guard{this, &ok};

  SFS_REQUIRE(get_u64(data_, 0) == kSnapshotMagic,
              "not a snapshot (bad magic): " + path);
  SFS_REQUIRE(get_u64(data_, 1) == kSnapshotVersion,
              "unsupported snapshot version: " + path);
  SFS_REQUIRE(get_u64(data_, 2) == kSnapshotEndianMarker,
              "snapshot written with different endianness: " + path);

  const std::uint64_t n = get_u64(data_, 4);
  const std::uint64_t m = get_u64(data_, 5);
  SFS_REQUIRE(get_u64(data_, 6) == kSnapshotRowCodec,
              "snapshot declares unknown row codec: " + path);
  const std::uint64_t tail_len = get_u64(data_, 12);
  const std::uint64_t adj_len = get_u64(data_, 13);
  const EfDescriptor deg = get_descriptor(data_, 14);
  const EfDescriptor row = get_descriptor(data_, 20);
  SFS_REQUIRE(deg.low_bits < 64 && row.low_bits < 64,
              "snapshot declares invalid Elias-Fano split: " + path);

  const std::size_t off_tail = kHeaderBytes;
  const std::size_t off_adj =
      off_tail + pad8(static_cast<std::size_t>(tail_len));
  const std::size_t off_deg =
      off_adj + pad8(static_cast<std::size_t>(adj_len));
  const std::size_t off_row = off_deg + descriptor_word_count(deg) * 8;
  const std::size_t total = off_row + descriptor_word_count(row) * 8;
  SFS_REQUIRE(total == size_,
              "snapshot size disagrees with declared sections: " + path);
  SFS_REQUIRE(get_u64(data_, kChecksumWord) ==
                  fnv1a64(data_ + kChecksumStart, size_ - kChecksumStart),
              "snapshot checksum mismatch: " + path);

  view_.num_vertices = static_cast<std::size_t>(n);
  view_.num_edges = static_cast<std::size_t>(m);
  view_.tail_stream = {data_ + off_tail, static_cast<std::size_t>(tail_len)};
  view_.adj_stream = {data_ + off_adj, static_cast<std::size_t>(adj_len)};
  std::size_t cursor = off_deg;
  const auto take = [&](std::uint64_t words) {
    const auto span = word_span(data_, cursor, words, path);
    cursor += static_cast<std::size_t>(words) * 8;
    return span;
  };
  view_.degree_offsets = {static_cast<std::size_t>(deg.count), deg.universe,
                          static_cast<std::uint32_t>(deg.low_bits),
                          take(deg.low_words), take(deg.high_words),
                          take(deg.samples)};
  view_.row_offsets = {static_cast<std::size_t>(row.count), row.universe,
                       static_cast<std::uint32_t>(row.low_bits),
                       take(row.low_words), take(row.high_words),
                       take(row.samples)};

  const char* name = reinterpret_cast<const char*>(data_) + kGeneratorWord * 8;
  meta_.generator.assign(name, ::strnlen(name, kGeneratorBytes));
  meta_.seed = get_u64(data_, 7);
  ok = true;
}

void MappedSnapshot::reset() noexcept {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  view_ = CompressedView{};
}

MappedSnapshot::~MappedSnapshot() { reset(); }

MappedSnapshot::MappedSnapshot(MappedSnapshot&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      view_(other.view_),
      meta_(std::move(other.meta_)) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  other.view_ = CompressedView{};
}

MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    view_ = other.view_;
    meta_ = std::move(other.meta_);
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
    other.view_ = CompressedView{};
  }
  return *this;
}

std::string snapshot_cache_path(const std::string& dir,
                                const SnapshotMeta& meta, std::size_t n) {
  char seed_hex[17] = {};
  const auto res = std::to_chars(seed_hex, seed_hex + 16, meta.seed, 16);
  SFS_CHECK(res.ec == std::errc(), "seed formatting cannot fail");
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += meta.generator;
  path += "-n";
  path += std::to_string(n);
  path += "-s";
  path += seed_hex;
  path += ".sfsnap";
  return path;
}

namespace detail {

bool snapshot_file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

void require_snapshot_identity(const MappedSnapshot& snap,
                               const SnapshotMeta& meta, std::size_t n,
                               const std::string& path) {
  SFS_REQUIRE(snap.meta().generator == meta.generator &&
                  snap.meta().seed == meta.seed &&
                  snap.view().num_vertices == n,
              "snapshot cache collision: " + path + " holds (" +
                  snap.meta().generator + ", n=" +
                  std::to_string(snap.view().num_vertices) +
                  "), wanted (" + meta.generator + ", n=" +
                  std::to_string(n) + ")");
}

}  // namespace detail

}  // namespace sfs::graph

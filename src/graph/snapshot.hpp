// mmap-able graph snapshots: write a CompressedGraph to disk once per
// (generator, n, seed), map it read-only forever after.
//
// Generation drops out of the measurement loop entirely: experiments and
// server restarts open the snapshot, validate its header, and search
// straight off the mapped compressed streams through the same
// CompressedView decode surface the in-memory CompressedGraph exposes.
//
// On-disk layout (all integers little-endian u64 unless noted):
//
//   [0]   magic            "SFSSNAP1"
//   [1]   version          kSnapshotVersion
//   [2]   endian marker    0x0102030405060708 as written by the host
//   [3]   checksum         FNV-1a-64 over every byte from offset 32 to EOF
//   [4]   n                vertices
//   [5]   m                edges
//   [6]   row codec        kSnapshotRowCodec (varint rows)
//   [7]   seed             the audited stream seed the graph was built from
//   [8..11] generator      char[32], NUL-padded
//   [12]  tail stream length (bytes)
//   [13]  adjacency stream length (bytes)
//   [14..19] degree-offset Elias-Fano descriptor
//           (count, universe, low_bits, low words, high words, samples)
//   [20..25] row-offset Elias-Fano descriptor (same six fields)
//   ---- payload, each section padded to an 8-byte boundary ----
//   tail stream | adjacency stream |
//   degree-offset EF words (low | high | samples) |
//   row-offset EF words (low | high | samples)
//
// Writes go to "<path>.tmp" and are renamed into place, so a mid-write
// interrupt never leaves a partial file at the final path — and any
// truncation or corruption that does reach a reader is caught by the size
// cross-checks and the checksum before a single payload byte is decoded.
//
// Header validation failures (bad magic / version / endianness / checksum
// / declared lengths) are format-contract violations and throw
// std::invalid_argument via SFS_REQUIRE with the offending path in the
// message; only environmental open/map/write failures use runtime_error
// (the graph/io contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/compressed.hpp"

namespace sfs::graph {

inline constexpr std::uint64_t kSnapshotMagic = 0x3150414E53534653ULL;
inline constexpr std::uint64_t kSnapshotVersion = 1;
inline constexpr std::uint64_t kSnapshotEndianMarker = 0x0102030405060708ULL;
/// Header word 6: the row codec. Varint rows (0) are the only encoding;
/// a snapshot declaring any other value is rejected, never decoded.
inline constexpr std::uint64_t kSnapshotRowCodec = 0;

/// Identity of the graph a snapshot holds: which generator configuration
/// produced it and from which audited stream seed. Stored in the header
/// and cross-checked on every cache hit, so a path collision between two
/// different (generator, seed) builds is an error, never silent reuse.
struct SnapshotMeta {
  std::string generator;  // <= 31 bytes, e.g. "mori_merged_m1_p0.5"
  std::uint64_t seed = 0;
};

/// Serializes `view` (plus identity metadata) to `path`. Atomic: writes
/// "<path>.tmp" then renames, so readers never observe a partial file.
void write_snapshot(const std::string& path, const CompressedView& view,
                    const SnapshotMeta& meta);

/// A snapshot mapped read-only. The CompressedView spans point straight
/// into the mapping — zero copies, page cache shared across processes —
/// and stay valid for the lifetime of this object. Move-only.
class MappedSnapshot {
 public:
  /// Opens, maps and validates `path` (magic, version, endianness, row
  /// codec, section lengths vs file size, checksum).
  explicit MappedSnapshot(const std::string& path);
  ~MappedSnapshot();

  MappedSnapshot(MappedSnapshot&& other) noexcept;
  MappedSnapshot& operator=(MappedSnapshot&& other) noexcept;
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  [[nodiscard]] const CompressedView& view() const noexcept { return view_; }
  [[nodiscard]] const SnapshotMeta& meta() const noexcept { return meta_; }
  [[nodiscard]] std::size_t file_bytes() const noexcept { return size_; }

 private:
  void reset() noexcept;

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;  // mmap'd (munmap on destroy) vs owned buffer
  CompressedView view_;
  SnapshotMeta meta_;
};

/// Canonical cache filename for a (generator, n, seed) build under `dir`:
/// "<dir>/<generator>-n<n>-s<seed as hex>.sfsnap".
[[nodiscard]] std::string snapshot_cache_path(const std::string& dir,
                                              const SnapshotMeta& meta,
                                              std::size_t n);

/// Snapshot cache: returns a mapping of `path`, building and writing the
/// snapshot first if the file does not exist yet. On a cache hit the
/// stored (generator, seed, n) identity must match `meta`/`n` exactly —
/// a mismatch means two different builds collided on one path and throws.
/// `build` is only invoked on a miss and must return the compressed graph
/// for exactly this identity.
template <typename BuildFn>
[[nodiscard]] MappedSnapshot load_or_write_snapshot(const std::string& path,
                                                    const SnapshotMeta& meta,
                                                    std::size_t n,
                                                    BuildFn&& build);

/// Non-template core of load_or_write_snapshot.
namespace detail {
[[nodiscard]] bool snapshot_file_exists(const std::string& path);
void require_snapshot_identity(const MappedSnapshot& snap,
                               const SnapshotMeta& meta, std::size_t n,
                               const std::string& path);
}  // namespace detail

template <typename BuildFn>
MappedSnapshot load_or_write_snapshot(const std::string& path,
                                      const SnapshotMeta& meta, std::size_t n,
                                      BuildFn&& build) {
  if (!detail::snapshot_file_exists(path)) {
    const CompressedGraph compressed = build();
    write_snapshot(path, compressed.view(), meta);
  }
  MappedSnapshot snap(path);
  detail::require_snapshot_identity(snap, meta, n, path);
  return snap;
}

}  // namespace sfs::graph

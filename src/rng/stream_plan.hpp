// Versioned derivation of per-index RNG streams.
//
// A "stream plan" maps (experiment seed, stream tag, index) to the seed of
// an independent RNG stream. Two plans exist:
//
//  * kLegacy (v1) — the historical derive_stream_seed mix chain
//    (random.hpp). Every result produced before the plan versioning
//    existed — the e1/e2 pinned-seed goldens, checkpoint meta rows, the
//    test_sweep_compat goldens — is a v1 artifact, so v1 is frozen: any
//    harness replaying those outputs must keep requesting kLegacy.
//  * kCounter (v2) — counter-based derivation through Philox4x64
//    (philox.hpp): the index-th stream seed is word 0 of the Philox block
//    at counter `index` under key (seed, tag). Any index costs one block
//    encryption and the per-(seed, tag) plan is a single keyed object
//    instead of a per-use mix chain, which is what lets batch engines hand
//    out millions of per-query streams without per-query derivation state.
//
// Neither version is a run-time option: the portfolio sweeps
// (sim/sweep.cpp) derive under v1 and the QueryEngine
// (search/query_engine.cpp) under v2.
//
// Both versions route through the SFS_RNG_AUDIT machinery
// (stream_audit.hpp): every derivation records its
// (seed, tag, index) -> derived mapping, so a run under SFS_RNG_AUDIT=1
// verifies the whole plan for cross-stream collisions regardless of
// version. Artifacts that record a plan record its enum value (1 or 2),
// as perfbench's manifest does.
#pragma once

#include <cstdint>

namespace sfs::rng {

enum class StreamPlanVersion : std::uint32_t {
  kLegacy = 1,   // derive_stream_seed mix chain (pre-versioning artifacts)
  kCounter = 2,  // Philox counter-offset derivation (QueryEngine)
};

/// One (experiment seed, stream tag) family of per-index streams under a
/// fixed plan version. Cheap to construct (no allocation); copyable.
class StreamPlan {
 public:
  StreamPlan(std::uint64_t experiment_seed, std::uint64_t stream_tag,
             StreamPlanVersion version) noexcept
      : seed_(experiment_seed), stream_(stream_tag), version_(version) {}

  [[nodiscard]] std::uint64_t experiment_seed() const noexcept {
    return seed_;
  }
  [[nodiscard]] std::uint64_t stream_tag() const noexcept { return stream_; }
  [[nodiscard]] StreamPlanVersion version() const noexcept { return version_; }

  /// Seed of stream `index` (the rep index for replication harnesses, the
  /// batch index for query engines). Audited: records
  /// (seed, tag, index) -> derived when SFS_RNG_AUDIT is on. O(1) for both
  /// versions; for kCounter this is a single Philox block at any index,
  /// without deriving its predecessors.
  [[nodiscard]] std::uint64_t stream_seed(std::uint64_t index) const;

 private:
  std::uint64_t seed_;
  std::uint64_t stream_;
  StreamPlanVersion version_;
};

}  // namespace sfs::rng

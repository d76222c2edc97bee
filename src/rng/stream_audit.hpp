// Debug recorder for the seed-derivation discipline (docs/PERF.md).
//
// Every Monte-Carlo harness derives each replication's RNG streams as a
// pure function (experiment seed, stream tag, rep) -> derived seed via
// rng::derive_stream_seed. Two *different* triples mapping to the same
// derived seed would silently correlate measurements that the statistics
// assume independent — exactly the bug class the PR 2 mix64-tempering fix
// closed for scaling sweeps. This audit makes that failure loud: every
// derivation outside rng/ goes through audited_stream_seed() below (the
// replication harnesses, the experiments, core/ and the QueryEngine's
// per-query streams alike), which, when enabled, records the triple ->
// seed mapping in a process-wide table and throws std::logic_error the
// moment two distinct triples collide on one derived seed.
//
// Enabling: set the environment variable SFS_RNG_AUDIT to a non-empty
// value other than "0" before the first derivation, or call
// StreamAudit::instance().set_enabled(true) programmatically (tests do).
// Disabled (the default), each audited function costs one relaxed atomic
// load over its plain derivation. The table grows by one entry per
// distinct derivation, so the audit is a debug mode, not a production
// default.
//
// Re-recording the *same* triple -> seed mapping is idempotent and legal:
// repeated harness calls in one process replay their streams. Note the
// audit sees only derivations actually performed in this process — a
// checkpoint-resumed sweep derives seeds just for the cells it computes,
// so cells restored from the checkpoint are not re-checked.
//
// Threading: record() is called concurrently by replication workers; the
// collision table lives behind a base::Mutex with the guarded-by
// capability annotation checked in CI (docs/ANALYSIS.md, "Capability
// annotations"). The enable flag is a relaxed atomic read on the fast
// path.
#pragma once

#include <cstdint>
#include <iosfwd>

namespace sfs::rng {

/// The domain of one stream derivation.
struct StreamTriple {
  std::uint64_t seed = 0;    // experiment seed
  std::uint64_t stream = 0;  // stream tag (0 = graph, ... see docs/PERF.md)
  std::uint64_t rep = 0;     // replication index

  friend bool operator==(const StreamTriple&, const StreamTriple&) = default;
};

/// Process-wide collision-detecting recorder of stream derivations.
/// Thread-safe: harness workers record concurrently.
class StreamAudit {
 public:
  /// The process-wide instance. First use reads SFS_RNG_AUDIT to set the
  /// initial enabled state.
  [[nodiscard]] static StreamAudit& instance();

  [[nodiscard]] bool enabled() const noexcept;
  void set_enabled(bool on) noexcept;

  /// Drops every recorded mapping (enabled state unchanged).
  void reset();

  /// Records triple -> derived. Throws std::logic_error if `derived` was
  /// previously recorded for a *different* triple; recording the same
  /// mapping again is a no-op.
  void record(const StreamTriple& triple, std::uint64_t derived);

  /// Number of distinct derivations recorded so far.
  [[nodiscard]] std::size_t recorded_count() const;

  /// Writes every recorded mapping as CSV rows
  /// (seed,stream,rep,derived_seed), sorted by derived seed.
  void dump(std::ostream& out) const;

 private:
  StreamAudit();
  ~StreamAudit();
  StreamAudit(const StreamAudit&) = delete;
  StreamAudit& operator=(const StreamAudit&) = delete;

  struct Impl;
  Impl* impl_;
};

/// derive_stream_seed + record-if-audit-enabled: the one seed derivation
/// outside rng/. Every caller derives through it instead of
/// derive_stream_seed, so a run under SFS_RNG_AUDIT=1 verifies its whole
/// stream plan. Any rep costs O(1) and no state, so the QueryEngine
/// derives query i's seed without deriving its predecessors.
[[nodiscard]] std::uint64_t audited_stream_seed(std::uint64_t experiment_seed,
                                                std::uint64_t stream,
                                                std::uint64_t rep);

}  // namespace sfs::rng

// Deterministic churn schedules over a graph::Overlay.
//
// A ChurnSchedule turns a rate specification into a reproducible stream of
// overlay mutations, split into the two phases a live system alternates
// with lookup traffic:
//
//   inject(step) — each live peer departs with probability `rate`
//     (tombstoned, edges left dangling), each live link between live
//     peers fails with probability `edge_failure_rate`. The overlay is
//     left broken on purpose: query batches run here race stale routing
//     state, which is what the departure-tolerant search layer absorbs.
//   repair(step) — each departure is (optionally) replaced by a fresh
//     join with `join_edges` preferential-attachment links, then the
//     overlay may compact (Overlay::maybe_compact).
//
// A step is inject then repair. With replacement on, the live population
// is stationary in expectation — the "steady-state churn" regime the
// d1_churn experiment family measures.
//
// Determinism is the whole point. Step `t` draws from Rngs seeded with
// rng::audited_stream_seed(seed, tag, t) (one tag per phase): every step
// is a pure function of (schedule seed, step index) and independent of
// thread count or of how many searches ran in between, so the RNG stream
// audit and the seq == parallel bit-identity discipline carry over
// unchanged. Within a phase, events are applied in a fixed order
// (departures in vertex-id order, edge failures in edge-id order), so an
// identical (overlay, seed, step) triple always yields an identical
// mutated overlay.
//
// A zero schedule (rate == 0 and edge_failure_rate == 0) is an exact
// no-op: inject and repair return without touching the overlay or drawing
// any randomness, so the overlay epoch is unchanged and downstream search is
// bit-identical to the static-graph pipeline — the churn-rate-0 acceptance
// check in bench/experiments/d1_churn.cpp relies on this.
//
// Threading: inject and repair mutate the overlay and must not race
// overlay readers; drive it from the orchestrating thread between search batches
// (the QueryEngine epoch contract).
#pragma once

#include <cstdint>

#include "graph/overlay.hpp"

namespace sfs::sim {

/// Rate specification for one churn process. Rates are per-step
/// probabilities, not continuous-time intensities.
struct ChurnParams {
  /// Per-step departure probability of each live peer.
  double rate = 0.0;
  /// Replace each departure with a fresh join (stationary population)?
  bool replace = true;
  /// Per-step failure probability of each live snapshot edge.
  double edge_failure_rate = 0.0;
  /// Preferential-attachment links per replacement join.
  std::size_t join_edges = 2;
  /// Dead-edge debt fraction that triggers compaction
  /// (Overlay::maybe_compact).
  double compact_threshold = 0.25;
};

/// What one step (inject + repair) did, for experiment reporting.
struct ChurnStepStats {
  std::size_t departures = 0;
  std::size_t joins = 0;
  std::size_t edge_failures = 0;
  bool compacted = false;
};

/// Stream tags of the churn event streams (rng::audited_stream_seed's
/// `stream` argument); the step index is the `rep` argument. Injection
/// (departures + edge failures) and repair (replacement joins) draw from
/// separate streams so the two phases of one step stay uncorrelated.
/// Exposed so experiments can keep their other substreams disjoint.
[[nodiscard]] std::uint64_t churn_stream_tag() noexcept;
[[nodiscard]] std::uint64_t churn_repair_stream_tag() noexcept;

/// A seeded churn process. Stateless between steps apart from the params
/// and seed: step t's events depend only on (seed, t) and the overlay
/// state it is applied to.
class ChurnSchedule {
 public:
  /// Validates params: rates must be finite in [0, 1], join_edges >= 1
  /// when replacement is on, compact_threshold >= 0.
  ChurnSchedule(const ChurnParams& params, std::uint64_t seed);

  [[nodiscard]] const ChurnParams& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// True iff the schedule can never mutate anything (both rates zero).
  [[nodiscard]] bool is_null() const noexcept;

  /// Fault-injection half of step `step`: departures (vertex-id order,
  /// never reducing the live population below 2 peers) and edge failures
  /// (edge-id order). No joins, no compaction — the overlay is left with
  /// its tombstones and dead links showing, which is the state lookup
  /// traffic races in a real system (run query batches here, before
  /// repair, to exercise the departure-tolerant search path). A null
  /// schedule returns all-zero stats without touching the overlay.
  ChurnStepStats inject(graph::Overlay& overlay, std::uint64_t step) const;

  /// Repair half of step `step`: one replacement join per departure in
  /// `stats` (when params().replace), then Overlay::maybe_compact. Updates
  /// stats.joins / stats.compacted in place. Draws from the repair stream,
  /// so injection and repair of one step are independent.
  void repair(graph::Overlay& overlay, std::uint64_t step,
              ChurnStepStats& stats) const;

 private:
  ChurnParams params_;
  std::uint64_t seed_ = 0;
};

}  // namespace sfs::sim

#include "sim/churn.hpp"

#include <cmath>

#include "base/check.hpp"
#include "rng/random.hpp"
#include "rng/stream_audit.hpp"

namespace sfs::sim {

std::uint64_t churn_stream_tag() noexcept {
  // "churn" — tempered like every other stream tag so nearby raw tags
  // cannot collide in derive_stream_seed's mixing.
  return rng::mix64(0xc4a91ULL);
}

std::uint64_t churn_repair_stream_tag() noexcept {
  return rng::mix64(0x6a01dULL);  // "joined"
}

ChurnSchedule::ChurnSchedule(const ChurnParams& params, std::uint64_t seed)
    : params_(params), seed_(seed) {
  SFS_REQUIRE(std::isfinite(params.rate) && params.rate >= 0.0 &&
                  params.rate <= 1.0,
              "ChurnSchedule: rate must be in [0, 1]");
  SFS_REQUIRE(std::isfinite(params.edge_failure_rate) &&
                  params.edge_failure_rate >= 0.0 &&
                  params.edge_failure_rate <= 1.0,
              "ChurnSchedule: edge_failure_rate must be in [0, 1]");
  SFS_REQUIRE(!params.replace || params.join_edges >= 1,
              "ChurnSchedule: replacement joins need join_edges >= 1");
  SFS_REQUIRE(std::isfinite(params.compact_threshold) &&
                  params.compact_threshold >= 0.0,
              "ChurnSchedule: compact_threshold must be non-negative");
}

bool ChurnSchedule::is_null() const noexcept {
  return params_.rate == 0.0 && params_.edge_failure_rate == 0.0;
}

ChurnStepStats ChurnSchedule::inject(graph::Overlay& overlay,
                                     std::uint64_t step) const {
  ChurnStepStats stats;
  // Exact no-op contract: a zero schedule draws nothing and leaves the
  // overlay epoch untouched (churn-rate-0 == static-graph bit-identity).
  if (is_null()) return stats;

  rng::Rng step_rng(
      rng::audited_stream_seed(seed_, churn_stream_tag(), step));

  // 1. Departures, in vertex-id order. The population floor of 2 keeps a
  // join target and at least one possible search source/target pair
  // around; vertices whose departure the floor vetoes consume no draw
  // (their turn simply never happens, same as a dead vertex's).
  if (params_.rate > 0.0) {
    const std::size_t n = overlay.num_vertices();
    for (std::size_t vi = 0; vi < n; ++vi) {
      if (overlay.num_alive() <= 2) break;
      const auto v = static_cast<graph::VertexId>(vi);
      if (!overlay.alive(v)) continue;
      if (step_rng.bernoulli(params_.rate)) {
        overlay.depart(v);
        ++stats.departures;
      }
    }
  }

  // 2. Targeted edge failures, in edge-id order, restricted to links
  // between two live peers (an edge stranded by a departure is already
  // unusable and already counted in the compaction debt).
  if (params_.edge_failure_rate > 0.0) {
    const graph::Graph& g = overlay.snapshot();
    const std::size_t m = g.num_edges();
    for (std::size_t ei = 0; ei < m; ++ei) {
      const auto e = static_cast<graph::EdgeId>(ei);
      if (!overlay.edge_alive(e)) continue;
      const graph::Edge& ed = g.edge(e);
      if (!overlay.alive(ed.tail) || !overlay.alive(ed.head)) continue;
      if (step_rng.bernoulli(params_.edge_failure_rate)) {
        overlay.fail_edge(e);
        ++stats.edge_failures;
      }
    }
  }
  return stats;
}

void ChurnSchedule::repair(graph::Overlay& overlay, std::uint64_t step,
                           ChurnStepStats& stats) const {
  if (is_null()) return;

  // Replacement joins: one fresh peer per departure, keeping the live
  // population stationary. Separate stream from inject(), so the repair
  // randomness of a step does not depend on how many probes the injection
  // phase spent.
  if (params_.replace && stats.departures > 0) {
    rng::Rng repair_rng(
        rng::audited_stream_seed(seed_, churn_repair_stream_tag(), step));
    for (std::size_t i = 0; i < stats.departures; ++i) {
      (void)overlay.join(params_.join_edges, repair_rng);
      ++stats.joins;
    }
  }

  // Periodic compaction (always needed when joins staged; otherwise only
  // once the dead-edge debt crosses the threshold).
  stats.compacted = overlay.maybe_compact(params_.compact_threshold);
}

}  // namespace sfs::sim

#include "search/local_view.hpp"

#include <algorithm>
#include <limits>

#include "base/prefetch.hpp"

namespace sfs::search {

using graph::kNoVertex;
using graph::VertexId;

void SearchWorkspace::begin_run(std::size_t n, std::size_t m,
                                KnowledgeModel model) {
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    // Stamp wraparound (once per ~4 billion runs): re-zero so stale stamps
    // from long-dead epochs cannot collide with fresh ones. Every stamp
    // array, whichever model sized it.
    std::fill(known_stamp_.begin(), known_stamp_.end(), 0u);
    std::fill(explored_stamp_.begin(), explored_stamp_.end(), 0u);
    std::fill(requested_stamp_.begin(), requested_stamp_.end(), 0u);
    epoch_ = 0;
  }
  ++epoch_;
  if (known_stamp_.size() < n) {
    known_stamp_.resize(n, 0u);
    parent_.resize(n, kNoVertex);
  }
  if (model == KnowledgeModel::kWeak) {
    if (explored_stamp_.size() < m) explored_stamp_.resize(m, 0u);
    if (unexplored_cursor_.size() < n) unexplored_cursor_.resize(n);
  } else if (requested_stamp_.size() < n) {
    requested_stamp_.resize(n, 0u);
  }
  known_order_.clear();
}

void SearchWorkspace::debug_fast_forward_epoch(std::uint32_t epoch) {
  SFS_REQUIRE(epoch >= epoch_,
              "debug_fast_forward_epoch: epoch may only move forward");
  epoch_ = epoch;
}

namespace {

void validate_view_args(const graph::Graph& g, VertexId start, VertexId target,
                        const LivenessView& liveness) {
  SFS_REQUIRE(start < g.num_vertices(), "start vertex out of range");
  SFS_REQUIRE(target < g.num_vertices(), "target vertex out of range");
  SFS_REQUIRE(liveness.vertex_alive.empty() ||
                  liveness.vertex_alive.size() == g.num_vertices(),
              "liveness vertex mask size does not match the graph");
  SFS_REQUIRE(liveness.edge_alive.empty() ||
                  liveness.edge_alive.size() == g.num_edges(),
              "liveness edge mask size does not match the graph");
  SFS_REQUIRE(liveness.vertex_ok(start),
              "search cannot start at a departed vertex");
  SFS_REQUIRE(liveness.vertex_ok(target),
              "search cannot target a departed vertex");
}

}  // namespace

LocalView::LocalView(const graph::Graph& g, KnowledgeModel model,
                     VertexId start, VertexId target,
                     SearchWorkspace& workspace, LivenessView liveness)
    : graph_(&g),
      model_(model),
      start_(start),
      target_(target),
      liveness_(liveness),
      ws_(&workspace) {
  validate_view_args(g, start, target, liveness_);
  ws_->begin_run(g.num_vertices(), g.num_edges(), model);
  make_known(start, kNoVertex);
  if (model == KnowledgeModel::kWeak) ws_->unexplored_cursor_[start] = 0;
}

std::span<const VertexId> LocalView::request_vertex_span(VertexId u) {
  SFS_REQUIRE(model_ == KnowledgeModel::kStrong,
              "request_vertex_span is a strong-model request");
  SFS_REQUIRE(is_known(u),
              "strong requests must name a vertex whose identity is known");

  ++raw_requests_;
  if (!liveness_.vertex_ok(u)) {
    // Departed peer: the probe fails with an empty answer. Mark it
    // requested so vertex_requested() reports the known-dead state and
    // policies stop proposing it. (Liveness before the cache check, as in
    // request_edge.)
    ++failed_requests_;
    ws_->requested_stamp_[u] = ws_->epoch_;
    return {};
  }
  if (ws_->requested_stamp_[u] != ws_->epoch_) {
    ++requests_;
    ws_->requested_stamp_[u] = ws_->epoch_;
    // An open writes only what the strong model reads: the known stamps,
    // parents and discovery order. No strong reader asks which edges
    // were explored, so no edge is stamped.
    const auto adj = graph_->adjacent(u);
    if (liveness_.edge_alive.empty()) {
      // Static fast path: no incidence read and no per-slot mask checks,
      // and the known-stamp lines — random accesses by vertex id, the
      // loop's only misses — are prefetched a few slots ahead of use.
      // Same make_known order: bit-identical to the masked loop below
      // with an all-alive mask.
      constexpr std::size_t kAhead = 8;
      for (std::size_t i = 0; i < adj.size(); ++i) {
        if (i + kAhead < adj.size()) {
          base::prefetch(&ws_->known_stamp_[adj[i + kAhead]]);
        }
        const VertexId v = adj[i];
        if (!known(v)) make_known(v, u);
      }
    } else {
      const auto inc = graph_->incident(u);
      for (std::size_t i = 0; i < adj.size(); ++i) {
        // A dead link hides its endpoint entirely; a live link to a
        // departed peer still discloses the stale identity (the probe
        // that follows is what fails).
        if (!liveness_.edge_ok(inc[i])) continue;
        const VertexId v = adj[i];
        if (!known(v)) make_known(v, u);
      }
    }
  }
  return graph_->adjacent(u);
}

VertexId LocalView::discoverer(VertexId v) const {
  SFS_REQUIRE(v < graph_->num_vertices(), "vertex out of range");
  return known(v) ? ws_->parent_[v] : kNoVertex;
}

std::vector<VertexId> LocalView::discovery_path() const {
  if (!target_found()) return {};
  std::vector<VertexId> path;
  for (VertexId v = target_; v != kNoVertex; v = ws_->parent_[v]) {
    path.push_back(v);
    SFS_CHECK(path.size() <= graph_->num_vertices(),
              "discovery forest contains a cycle");
  }
  std::reverse(path.begin(), path.end());
  SFS_CHECK(path.front() == start_, "discovery path does not start at start");
  return path;
}

}  // namespace sfs::search

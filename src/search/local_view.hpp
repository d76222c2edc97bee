// LocalView: the information mediator between a search algorithm and the
// hidden graph, implementing the paper's two local-knowledge models.
//
// From the paper (§1, "Modeling the searching process"):
//
//   "In both models, the searching process has access to a list of already
//    discovered vertices (initially reduced to a single vertex), each with
//    its degree and a list of incident edges. At each time step, the
//    searching process can try to discover a new vertex by making a
//    request. In the weak model, a request is in the form of a pair (u, e),
//    where u is an already discovered vertex, and e is an edge incident to
//    u. The answer to the request is the identity v of the other endpoint
//    of edge e, together with the list of all edges incident to v. In the
//    strong model, a request is in the form of a vertex u that is adjacent
//    to an already discovered vertex, and the answer consists of the list
//    of vertices adjacent to u, together with their respective lists of
//    incident edges. Our measure of performance is the number of requests
//    made prior to stopping."
//
// Accounting convention: a request whose answer is already implied by past
// answers (re-requesting an explored edge, or a strong request for an
// already-requested vertex) is served from cache and NOT charged — an
// optimal process never repeats itself, and the paper's lower bounds count
// distinct discoveries. The raw count including repeats is also kept, since
// the Adamic et al. random-walk baseline is traditionally measured in steps.
//
// The view also maintains the discovery forest (who revealed whom), from
// which the found path start -> target is extracted, satisfying the paper's
// goal of "finding a path to vertex n".
//
// Allocation model: all per-search state lives in a SearchWorkspace whose
// arrays are epoch-stamped, so starting a new search over a same-size graph
// is O(1) — no clearing, no reallocation. A LocalView always borrows a
// caller-owned workspace: the Monte-Carlo replication engines reuse one per
// worker thread across thousands of runs, and a single run declares one
// on the stack.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "base/check.hpp"
#include "base/prefetch.hpp"
#include "graph/graph.hpp"

namespace sfs::search {

enum class KnowledgeModel {
  kWeak,
  kStrong,
};

/// A weak-model request (u, e): reveal the far endpoint of the edge e
/// incident to the discovered vertex `u`. The searching process holds
/// u's incident-edge list, so e is named by its position in that list:
/// e = incident(u)[slot]. Policies that pick the edge by indexing the span
/// (walks, cursor scans) already hold the slot, and the view resolves the
/// far endpoint from the adjacency span it is streaming anyway instead of
/// a random load into the edge array.
struct WeakRequest {
  graph::VertexId u = graph::kNoVertex;
  std::uint32_t slot = 0;
};

/// Liveness masks overlaying the searched snapshot (one byte per vertex /
/// per edge id, nonzero = alive; graph::Overlay::vertex_alive_mask() and
/// edge_alive_mask() produce them). An empty span means "all alive", so a
/// default-constructed LivenessView is the static-graph case and adds no
/// work to the hot path. The spans must outlive the LocalView and must not
/// be mutated while a search is running (the Overlay single-writer
/// contract).
///
/// Under a mask, requests can FAIL: probing a dead link or a departed
/// peer returns no discovery (see request_edge / request_vertex_span).
/// Failures model stale routing tables — the searcher only learns a
/// neighbor is gone by spending a probe on it.
struct LivenessView {
  std::span<const std::uint8_t> vertex_alive{};  // empty = all alive
  std::span<const std::uint8_t> edge_alive{};    // empty = all alive

  [[nodiscard]] bool vertex_ok(graph::VertexId v) const noexcept {
    return vertex_alive.empty() || vertex_alive[v] != 0;
  }
  [[nodiscard]] bool edge_ok(graph::EdgeId e) const noexcept {
    return edge_alive.empty() || edge_alive[e] != 0;
  }
};

/// Reusable per-search scratch state. The known/explored/requested flags
/// are stamped with the run epoch instead of being booleans: a slot is
/// "set" iff its stamp equals the current epoch, so resetting between runs
/// is a single epoch increment (arrays are only re-zeroed on the ~2^32-run
/// stamp wraparound, and only grow when a larger graph arrives).
///
/// Each array grows only in runs of the model that maintains it: the
/// known stamps, parents and discovery order serve both models, the
/// explored stamps and slot cursors only weak runs, and the requested
/// stamps only strong runs. A strong run never reads or writes the weak
/// arrays, nor a weak run the strong one.
///
/// A workspace may be bound to at most one live LocalView at a time; it is
/// not thread-safe (use one per worker).
class SearchWorkspace {
 public:
  SearchWorkspace() = default;

  // Not copyable or movable: a live LocalView holds a raw pointer to its
  // workspace, so relocating one would dangle the view.
  SearchWorkspace(const SearchWorkspace&) = delete;
  SearchWorkspace& operator=(const SearchWorkspace&) = delete;
  SearchWorkspace(SearchWorkspace&&) = delete;
  SearchWorkspace& operator=(SearchWorkspace&&) = delete;

  /// The current run-epoch stamp (test/debug observability; 0 means no run
  /// has started yet or the counter was just wrap-reset).
  [[nodiscard]] std::uint32_t debug_epoch() const noexcept { return epoch_; }

  /// Test hook: fast-forwards the run-epoch counter so the wrap-around
  /// guard in begin_run can be exercised without ~2^32 real runs. Forward
  /// only (a backward jump could alias live stamps as belonging to a
  /// not-yet-started run, which is exactly the bug the guard prevents).
  /// Must not be called while a LocalView is live on this workspace.
  void debug_fast_forward_epoch(std::uint32_t epoch);

 private:
  friend class LocalView;

  /// Starts a fresh `model` run over a graph with `n` vertices and `m`
  /// edges, growing the arrays that model maintains.
  void begin_run(std::size_t n, std::size_t m, KnowledgeModel model);

  std::uint32_t epoch_ = 0;
  // Both models maintain these.
  std::vector<std::uint32_t> known_stamp_;    // size >= n
  std::vector<graph::VertexId> parent_;       // valid for known vertices
  std::vector<graph::VertexId> known_order_;  // cleared per run
  // Only weak runs size, write or read these.
  std::vector<std::uint32_t> explored_stamp_;     // size >= m
  std::vector<std::uint32_t> unexplored_cursor_;  // valid for known vertices
  // Only strong runs size, write or read this.
  std::vector<std::uint32_t> requested_stamp_;  // size >= n
};

class LocalView {
 public:
  /// Starts a search over `g` from `start` for `target` on the caller's
  /// workspace (zero-allocation when the workspace has already served a
  /// graph at least this large). The view holds references to `g` and
  /// `workspace`; both must outlive the view, and the workspace must not
  /// be shared with another live view. A non-default `liveness` makes the
  /// view departure-tolerant (masks must match the graph's sizes; start
  /// and target must be alive).
  LocalView(const graph::Graph& g, KnowledgeModel model, graph::VertexId start,
            graph::VertexId target, SearchWorkspace& workspace,
            LivenessView liveness = {});

  [[nodiscard]] KnowledgeModel model() const noexcept { return model_; }
  [[nodiscard]] graph::VertexId start() const noexcept { return start_; }
  [[nodiscard]] graph::VertexId target() const noexcept { return target_; }

  /// Global vertex count. The paper's processes know the id range [1, n],
  /// so exposing n leaks nothing beyond the model.
  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return graph_->num_vertices();
  }

  // ------------------------------------------------------------------
  // Knowledge accessors (legal for *known* vertices only).
  // ------------------------------------------------------------------

  /// Vertices whose identity, degree and incident edge list are currently
  /// known, in discovery order (the first element is start()).
  [[nodiscard]] std::span<const graph::VertexId> known_vertices()
      const noexcept {
    return ws_->known_order_;
  }

  [[nodiscard]] bool is_known(graph::VertexId v) const;

  /// Degree of a known vertex (self-loops count twice, as in Graph).
  [[nodiscard]] std::size_t degree(graph::VertexId v) const;

  /// Cache hint for a coming degree(v) call; no effect on results.
  void prefetch_degree(graph::VertexId v) const noexcept {
    graph_->prefetch_degree(v);
  }

  /// Incident edge ids of a known vertex.
  [[nodiscard]] std::span<const graph::EdgeId> incident(
      graph::VertexId v) const;

  /// Incidence-span index of the first incident edge of known vertex `v`
  /// that is not yet explored, if any — the natural `slot` of a
  /// WeakRequest built from the cursor scan. Amortized O(deg) over the
  /// whole search via a monotone cursor. Requires model() == kWeak: a
  /// strong request explores no single edge, so strong views keep no
  /// explored stamps or cursors.
  [[nodiscard]] std::optional<std::uint32_t> first_unexplored_slot(
      graph::VertexId v) const;

  // ------------------------------------------------------------------
  // Requests.
  // ------------------------------------------------------------------

  /// Weak-model request (u, e) with e = incident(u)[r.slot]: requires
  /// model() == kWeak, `u` known and r.slot < degree(u). Returns the
  /// identity of the far endpoint, which becomes known. Charged once per
  /// edge.
  ///
  /// Under a liveness mask the probe FAILS (returns kNoVertex, reveals
  /// nothing, counts toward failed_requests() but is never charged) when
  /// the edge is dead or its far endpoint has departed; the edge is marked
  /// explored so the searcher does not re-probe a known-dead link. Dead
  /// vertices are thus never known in the weak model.
  graph::VertexId request_edge(const WeakRequest& r);

  /// Strong-model request: requires model() == kStrong and `u` known (the
  /// start vertex is known from the outset). All neighbors of `u` become
  /// known. Returns the neighbor identities (multiset, loop gives u) as a
  /// span aliasing the graph's CSR neighbor payload, valid for the graph's
  /// lifetime. Charged once per vertex.
  ///
  /// Under a liveness mask, requesting a departed vertex FAILS (empty
  /// span, failed_requests()++, never charged; `u` is marked requested
  /// so policies skip it from then on). Opening a live vertex skips
  /// dead-link slots — their endpoints stay invisible — but DOES reveal
  /// departed endpoints reachable over live edges: neighbor tables are
  /// stale, so the searcher learns those identities and only discovers
  /// the departure by probing them. The returned span is that *stale*
  /// table (it still lists endpoints behind dead links, which are not
  /// revealed); consult is_known()/known_vertices() for what a request
  /// actually disclosed.
  std::span<const graph::VertexId> request_vertex_span(graph::VertexId u);

  /// Whether `u` is "fully opened": in the strong model, already the
  /// subject of a charged request; in the weak model, known with every
  /// incident edge explored (the state a simulated strong request leaves a
  /// vertex in — see search/simulate.hpp).
  [[nodiscard]] bool vertex_requested(graph::VertexId u) const;

  // ------------------------------------------------------------------
  // Accounting and outcome.
  // ------------------------------------------------------------------

  /// Charged (novel) requests so far.
  [[nodiscard]] std::size_t requests() const noexcept { return requests_; }
  /// All requests including cached repeats.
  [[nodiscard]] std::size_t raw_requests() const noexcept {
    return raw_requests_;
  }
  /// Requests that failed against the liveness mask (dead link / departed
  /// peer). Failed probes count toward raw_requests() but are never
  /// charged; always 0 without a mask.
  [[nodiscard]] std::size_t failed_requests() const noexcept {
    return failed_requests_;
  }

  /// True once the target's identity is known (also true immediately if
  /// start == target).
  [[nodiscard]] bool target_found() const;

  /// Path start -> target through the discovery forest; empty unless
  /// target_found(). Every consecutive pair is joined by an edge of the
  /// graph.
  [[nodiscard]] std::vector<graph::VertexId> discovery_path() const;

  /// Vertex that first revealed `v` (kNoVertex for start or unknown `v`).
  [[nodiscard]] graph::VertexId discoverer(graph::VertexId v) const;

 private:
  /// Marks `v` known, revealed by `via`. Writes no weak-model state: the
  /// weak reveals reset `v`'s slot cursor themselves.
  void make_known(graph::VertexId v, graph::VertexId via);
  [[nodiscard]] bool known(graph::VertexId v) const noexcept {
    return ws_->known_stamp_[v] == ws_->epoch_;
  }
  [[nodiscard]] bool explored(graph::EdgeId e) const noexcept {
    return ws_->explored_stamp_[e] == ws_->epoch_;
  }

  const graph::Graph* graph_;
  KnowledgeModel model_;
  graph::VertexId start_;
  graph::VertexId target_;
  LivenessView liveness_;

  SearchWorkspace* ws_;

  std::size_t requests_ = 0;
  std::size_t raw_requests_ = 0;
  std::size_t failed_requests_ = 0;
};

// ---------------------------------------------------------------------
// Inline hot path. The accessors sit on the per-probe path of every
// weak-model policy (one slot scan + one incidence read per decision) and
// of the strong priority policies (a degree per discovered vertex, a
// requested check per decision); the weak probe and the target check run
// once per loop iteration. Keeping them header-inline lets each policy's
// instantiation of the runner loop (drive, search/runner.hpp) fold them
// into the probe instead of paying an out-of-line call each.
// ---------------------------------------------------------------------

inline bool LocalView::is_known(graph::VertexId v) const {
  SFS_REQUIRE(v < graph_->num_vertices(), "vertex out of range");
  return known(v);
}

inline std::size_t LocalView::degree(graph::VertexId v) const {
  SFS_REQUIRE(is_known(v), "degree of an unknown vertex");
  return graph_->degree(v);
}

inline std::span<const graph::EdgeId> LocalView::incident(
    graph::VertexId v) const {
  SFS_REQUIRE(is_known(v), "incident edges of an unknown vertex");
  return graph_->incident(v);
}

inline std::optional<std::uint32_t> LocalView::first_unexplored_slot(
    graph::VertexId v) const {
  SFS_REQUIRE(model_ == KnowledgeModel::kWeak,
              "first_unexplored_slot reads weak-model state");
  SFS_REQUIRE(is_known(v), "first_unexplored_slot of an unknown vertex");
  const auto inc = graph_->incident(v);
  auto& cur = ws_->unexplored_cursor_[v];
  while (cur < inc.size() && explored(inc[cur])) {
    ++cur;
    if (cur + 2 < inc.size()) {
      // The stamp reads above are the scan's only random accesses;
      // overlap the next ones with this iteration's work.
      base::prefetch(&ws_->explored_stamp_[inc[cur + 2]]);
    }
  }
  if (cur >= inc.size()) return std::nullopt;
  return cur;
}

inline bool LocalView::vertex_requested(graph::VertexId u) const {
  SFS_REQUIRE(u < graph_->num_vertices(), "vertex out of range");
  if (model_ == KnowledgeModel::kStrong) {
    return ws_->requested_stamp_[u] == ws_->epoch_;
  }
  return known(u) && !first_unexplored_slot(u).has_value();
}

inline bool LocalView::target_found() const { return known(target_); }

inline void LocalView::make_known(graph::VertexId v, graph::VertexId via) {
  ws_->known_stamp_[v] = ws_->epoch_;
  ws_->parent_[v] = via;
  ws_->known_order_.push_back(v);
}

inline graph::VertexId LocalView::request_edge(const WeakRequest& r) {
  SFS_REQUIRE(model_ == KnowledgeModel::kWeak,
              "request_edge is a weak-model request");
  SFS_REQUIRE(is_known(r.u), "requests must start from a discovered vertex");
  const auto inc = graph_->incident(r.u);
  SFS_REQUIRE(r.slot < inc.size(), "request slot is past the degree of u");

  ++raw_requests_;
  const graph::EdgeId e = inc[r.slot];
  // The far endpoint sits in the adjacency slot parallel to the incidence
  // slot (a self-loop slot stores u itself).
  const graph::VertexId v = graph_->adjacent(r.u)[r.slot];
  if (!liveness_.edge_ok(e) || !liveness_.vertex_ok(v)) {
    // Dead link or departed far endpoint: the probe fails and reveals
    // nothing. Mark the edge explored so first_unexplored_slot() skips
    // the known-dead link from now on. (The liveness check runs before
    // the cache check so a repeated probe of a dead edge stays a
    // failure.)
    ++failed_requests_;
    ws_->explored_stamp_[e] = ws_->epoch_;
    return graph::kNoVertex;
  }
  if (!explored(e)) {
    ++requests_;
    ws_->explored_stamp_[e] = ws_->epoch_;
    if (!known(v)) {
      make_known(v, r.u);
      ws_->unexplored_cursor_[v] = 0;
    }
  }
  return v;
}

}  // namespace sfs::search

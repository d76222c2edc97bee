// Dynamic overlay: the incremental-mutation layer over the immutable Graph.
//
// The paper's non-searchability results are proved on a static snapshot of
// a power-law overlay, but a deployed P2P system lives with continuous
// churn: peers join, peers leave, links fail. An Overlay wraps one Graph
// snapshot and makes that operational reality expressible while keeping
// the library's determinism discipline intact:
//
//  * Vertex JOIN — a new peer attaches to `m` existing peers chosen by
//    preferential attachment over the *live* degree mass (weight
//    live_degree(v) + 1, so an isolated survivor can be re-attached).
//    An rng::BucketedSampler maintains the live mass incrementally through
//    every mutation — O(1) per join target, departure slot and edge
//    failure. Joined vertices and their edges are STAGED: they receive
//    final ids immediately but enter the CSR snapshot only at the next
//    compaction.
//
//  * Vertex DEPARTURE — a tombstone: the peer's alive bit flips off in
//    O(1); its edges stay in the CSR until compaction and are skipped by
//    the departure-tolerant search layer (search/local_view.hpp). Vertex
//    ids are never reused and never shift, so long-lived queries and
//    checkpointed experiments keep naming the same peers.
//
//  * EDGE FAILURE — targeted link failure between two live peers, also a
//    mask bit.
//
//  * COMPACTION — rebuilds the CSR from the live topology plus the staged
//    joins, recycling the scratch builder's buffers (GraphBuilder::reset +
//    build_into). Dead vertices remain as isolated ids (stable numbering);
//    dead edges are dropped, so edge ids are renumbered — any consumer
//    holding per-edge state must treat a compaction as a new epoch (see
//    below). maybe_compact() implements the periodic policy: compact when
//    staged joins exist or the dead-edge debt crosses a fraction of m.
//
// Epochs: every mutation and every compaction bumps epoch() (a uint64 — it
// does not wrap in any real run). Consumers that cache anything derived
// from the snapshot (search sessions, adjacency spans, per-edge arrays)
// must revalidate against epoch(); search::QueryEngine uses it to rebuild
// stale sessions and to detect a mutation racing a running batch.
//
// Determinism: join() draws targets from the caller's Rng only, and the
// live mass is updated in a fixed order by each mutation, so an identical
// mutation sequence with identical seeds reproduces the overlay bit for
// bit — the property sim::ChurnSchedule builds on.
//
// Threading: an Overlay is a single-writer object; mutations must not race
// reads. The read side (snapshot + masks) is safe to share across search
// workers between mutations, which is exactly the batch contract
// QueryEngine enforces via the epoch check. Because the contract is
// "externally serialized", the class carries no mutex and no capability
// annotations — see docs/ANALYSIS.md ("Capability annotations") for the
// per-class lock-ownership table this fits into.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "rng/discrete.hpp"
#include "rng/random.hpp"

namespace sfs::graph {

class Overlay {
 public:
  /// Takes ownership of `base` as the epoch-1 snapshot; every vertex and
  /// edge starts alive.
  explicit Overlay(Graph base);

  // ------------------------------------------------------------------ views

  /// The current CSR snapshot: committed topology only (staged joins are
  /// invisible until compact()). The reference is stable for the Overlay's
  /// lifetime; its *contents* change at each compaction — consumers must
  /// revalidate via epoch().
  [[nodiscard]] const Graph& snapshot() const noexcept { return graph_; }

  /// Monotone change counter: starts at 1, bumps on every join / depart /
  /// fail_edge / compact.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Total ids ever issued (snapshot vertices + staged joins). Ids are
  /// never reused; `v < num_vertices()` is the valid-id check.
  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return alive_.size();
  }
  [[nodiscard]] std::size_t num_alive() const noexcept { return num_alive_; }
  /// Joined vertices not yet committed to the CSR by a compaction.
  [[nodiscard]] std::size_t staged_joins() const noexcept {
    return staged_vertices_;
  }
  [[nodiscard]] std::size_t compactions() const noexcept {
    return compactions_;
  }

  /// Mass the join sampler currently assigns to `v`
  /// (live_degree(v) + 1 for live vertices, 0 for departed ones). O(1).
  [[nodiscard]] std::uint64_t join_mass(VertexId v) const;

  [[nodiscard]] bool alive(VertexId v) const {
    SFS_REQUIRE(v < alive_.size(), "Overlay::alive: vertex id out of range");
    return alive_[v] != 0;
  }
  /// Liveness of a snapshot edge id (staged edges have no ids yet).
  [[nodiscard]] bool edge_alive(EdgeId e) const {
    SFS_REQUIRE(e < edge_alive_.size(),
                "Overlay::edge_alive: edge id out of range");
    return edge_alive_[e] != 0;
  }

  /// Mask spans for the departure-tolerant search layer
  /// (search::LivenessView): one byte per vertex id / per snapshot edge
  /// id, nonzero = alive. Invalidated by every mutating call.
  [[nodiscard]] std::span<const std::uint8_t> vertex_alive_mask()
      const noexcept {
    return alive_;
  }
  [[nodiscard]] std::span<const std::uint8_t> edge_alive_mask()
      const noexcept {
    return edge_alive_;
  }

  /// Live degree of `v`: live snapshot incidence (both the edge and the
  /// far endpoint alive; a live self-loop counts twice) plus staged edges
  /// at `v` with a live far endpoint. O(degree). Dead vertices have live
  /// degree 0.
  [[nodiscard]] std::size_t live_degree(VertexId v) const;

  // ------------------------------------------------------------- mutations

  /// A new peer joins with (up to) `attach` preferential-attachment links
  /// into the live overlay; returns its id. Targets are drawn from the
  /// live mass (weight live_degree + 1; duplicates allowed — the
  /// snapshot is a multigraph). Requires attach >= 1 and at least one live
  /// vertex. The join is staged until the next compaction.
  VertexId join(std::size_t attach, rng::Rng& rng);

  /// Tombstones a live vertex (O(1) plus its live-degree contribution to
  /// the compaction debt). Requires `v` alive.
  void depart(VertexId v);

  /// Fails a live snapshot edge. Requires `e` alive.
  void fail_edge(EdgeId e);

  /// Rebuilds the CSR snapshot: live committed edges plus staged joins,
  /// dead edges dropped, vertex ids preserved (tombstoned vertices become
  /// isolated ids). Edge ids are renumbered; the edge mask resets to
  /// all-alive. Recycles the internal scratch builder, so steady-state
  /// compactions reuse the CSR buffers.
  void compact();

  /// Compacts when staged joins exist or the dead-edge debt exceeds
  /// `debt_threshold` (a fraction of the snapshot edge count). Returns
  /// whether a compaction ran. This is the "periodic CSR compaction"
  /// policy applied by sim::ChurnSchedule after each event batch.
  bool maybe_compact(double debt_threshold);

 private:
  /// Subtracts the live-incidence mass `v` grants its neighbors, then
  /// zeroes `v`'s own weight (departure bookkeeping).
  void retire_live_mass(VertexId v);

  Graph graph_;  // committed snapshot (staged joins not yet included)
  /// Staged join edges: tail = the joining vertex, head = its target.
  std::vector<Edge> staged_edges_;
  std::size_t staged_vertices_ = 0;

  std::vector<std::uint8_t> alive_;       // size num_vertices() (incl staged)
  std::vector<std::uint8_t> edge_alive_;  // size snapshot().num_edges()
  std::size_t num_alive_ = 0;

  /// Snapshot edges made unusable since the last compaction (failed edges
  /// + live incidence of departed vertices); drives maybe_compact().
  std::size_t compaction_debt_ = 0;

  std::uint64_t epoch_ = 1;
  std::size_t compactions_ = 0;

  /// Edge-log + CSR packing scratch recycled across compactions. Owned
  /// directly (not via gen::GenScratch): graph/ sits below gen/ in the
  /// include-layering DAG (sfs_lint R8), and the overlay needs only the
  /// builder and the two vectors below, not the full generator arena.
  GraphBuilder builder_;
  /// join() target staging buffer (reused across calls).
  std::vector<VertexId> targets_;

  /// The live mass as explicit per-vertex weights, maintained
  /// incrementally through every mutation (compaction preserves live
  /// degrees, so it needs no work there). Invariant:
  /// live_mass_.weight(v) == alive(v) ? live_degree(v) + 1 : 0.
  rng::BucketedSampler live_mass_;
};

}  // namespace sfs::graph

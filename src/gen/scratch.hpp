// Reusable generation scratch: the generator-layer counterpart of
// search::SearchWorkspace.
//
// Portfolio sweeps at small n are dominated by graph *generation*, and
// almost all of that cost is allocation: every replication used to build a
// fresh preference bag, stub list, weight table, dedup set, GraphBuilder
// edge log and CSR arrays, only to free them a few microseconds later.
// GenScratch owns all of those buffers so a worker can recycle them across
// replications. Every generator has a scratch-taking overload that writes
// into a caller-owned Graph (recycled through GraphBuilder::build_into) and
// is bit-identical to the fresh-allocation path: same algorithm, same RNG
// consumption, only the buffer lifetimes differ.
//
// Threading: a GenScratch must never be shared by two concurrent
// generator calls — the replication harnesses hold one per worker (see
// sim/sweep.cpp's WorkerState and the scratch overload of
// sim::measure_scaling), mirroring the one-SearchWorkspace-per-worker rule.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"

namespace sfs::gen {

/// Arena of generator working buffers. Default-constructed empty; grows to
/// the high-water mark of the graphs generated through it and stays there.
struct GenScratch {
  /// Edge log + CSR packing scratch, recycled via reset()/build_into().
  graph::GraphBuilder builder;
  /// Intermediate graph for two-stage generators (the merged Móri graph's
  /// underlying tree). Never hand this object to a generator as its output.
  graph::Graph tmp_graph;
  /// Cooper–Frieze process edge log.
  std::vector<graph::Edge> edges;
  /// Preferential-attachment bag (Barabási–Albert, Cooper–Frieze) / Móri
  /// head bag: one entry per unit of attachment weight.
  std::vector<graph::VertexId> pref_bag;
  /// Per-step target list (Barabási–Albert).
  std::vector<graph::VertexId> targets;
  /// Configuration-model stub list.
  std::vector<graph::VertexId> stubs;
  /// Móri father array.
  std::vector<graph::VertexId> fathers;
  /// Móri indegree array.
  std::vector<std::uint32_t> in_degree;
  /// Power-law degree sequence.
  std::vector<std::uint32_t> degrees;
  /// Unordered-pair dedup set (Erdős–Rényi G(n,m), erased configuration
  /// model). clear() keeps the bucket array, so steady-state reuse does
  /// not re-hash from scratch.
  std::unordered_set<std::uint64_t> seen;
};

}  // namespace sfs::gen

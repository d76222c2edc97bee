// Reusable Móri generation scratch: the generator-layer counterpart of
// search::SearchWorkspace.
//
// The e1/e2 grid cells regenerate a Móri tree or merged Móri graph per
// cell, and at small n that cost is mostly allocation: a fresh father
// array, head bag, indegree table, GraphBuilder edge log and CSR arrays
// per graph, freed microseconds later. GenScratch owns those buffers so a
// worker can recycle them across cells. The scratch-taking Móri overloads
// (gen/mori.hpp) write into a caller-owned Graph (recycled through
// GraphBuilder::build_into) and are bit-identical to the allocating path:
// same algorithm, same RNG consumption, only the buffer lifetimes differ.
//
// A generator family keeps a scratch path only when a program regenerates
// it in a loop. The other families are built once per replication or in
// set-up, so their single allocating entry point owns its buffers.
//
// Threading: a GenScratch must never be shared by two concurrent
// generator calls. The replication harnesses hold one per worker (see
// sim/sweep.cpp's WorkerState and the scratch overload of
// sim::measure_scaling), mirroring the one-SearchWorkspace-per-worker rule.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"

namespace sfs::gen {

/// Arena of Móri working buffers. Default-constructed empty; grows to the
/// high-water mark of the graphs generated through it and stays there.
struct GenScratch {
  /// Edge log + CSR packing scratch, recycled via reset()/build_into().
  graph::GraphBuilder builder;
  /// The merged Móri graph's underlying tree. Never hand this object to a
  /// generator as its output.
  graph::Graph tmp_graph;
  /// Móri head bag: one entry per received edge.
  std::vector<graph::VertexId> pref_bag;
  /// Móri father array.
  std::vector<graph::VertexId> fathers;
  /// Móri indegree array.
  std::vector<std::uint32_t> in_degree;
};

}  // namespace sfs::gen

// Reusable Móri generation scratch: the generator-layer counterpart of
// search::SearchWorkspace.
//
// The e1/e2 grid cells regenerate a Móri tree or merged Móri graph per
// cell, and at small n that cost is mostly allocation: a fresh father
// array and CSR arrays per graph, plus a GraphBuilder edge log when m >= 2
// groups are merged, freed microseconds later. GenScratch owns those
// buffers so a worker can recycle them across cells. The scratch-taking
// Móri overloads (gen/mori.hpp) write into a caller-owned Graph, which
// graph::build_recursive_tree (the tree) and GraphBuilder::build_into (a
// merge with m >= 2) refill in place. They are bit-identical to the
// allocating path: same algorithm, same RNG consumption, only the buffer
// lifetimes differ.
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

#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"

namespace sfs::gen {

/// Arena of Móri working buffers. Default-constructed empty; grows to the
/// high-water mark of the graphs generated through it and stays there.
struct GenScratch {
  /// Edge log + CSR packing scratch of merges with m >= 2, recycled via
  /// reset()/build_into().
  graph::GraphBuilder builder;
  /// The underlying tree of a merged Móri graph with m >= 2. Never hand
  /// this object to a generator as its output.
  graph::Graph tmp_graph;
  /// Móri father array, the process's only state.
  std::vector<graph::VertexId> fathers;
};

}  // namespace sfs::gen

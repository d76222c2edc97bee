// Per-worker reusable scratch state for the replication harnesses.
//
// The parallel harnesses in sim/ (sweep, scaling) hand each worker thread a
// stable worker index and give it one WorkerContext: an epoch-stamped
// search workspace (O(1) reset between runs), a generator scratch arena,
// and a Graph whose CSR buffers are recycled across replications.
// search::QueryEngine sits below sim/ and keeps its own per-worker
// sessions instead.
//
// A WorkerContext is bound to one worker thread at a time; it is not
// thread-safe and (like SearchWorkspace) not movable, so harnesses build
// their per-worker vectors with the count constructor
// (std::vector<WorkerContext> workers(n)) and never resize them.
#pragma once

#include "gen/scratch.hpp"
#include "graph/graph.hpp"
#include "search/local_view.hpp"

namespace sfs::sim {

struct WorkerContext {
  /// Per-search state for the runner's workspace-reusing overloads.
  search::SearchWorkspace workspace;
  /// Generator arena for the scratch-taking gen/ overloads.
  gen::GenScratch gen_scratch;
  /// Graph slot recycled across replications (both the scratch-aware
  /// factories, which regenerate it in place, and the plain factories,
  /// which park their result here so callers get a stable reference).
  graph::Graph graph;

  WorkerContext() = default;
  WorkerContext(const WorkerContext&) = delete;
  WorkerContext& operator=(const WorkerContext&) = delete;
};

}  // namespace sfs::sim

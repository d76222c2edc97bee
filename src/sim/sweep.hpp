// Portfolio search-cost measurement: run a selected set of registered
// search policies on freshly generated graphs and summarize the
// charged-request cost per policy. The minimum over the portfolio is the
// empirical stand-in for "any algorithm" in the lower-bound experiments.
//
// One RunPlan describes the whole measurement — knowledge model, policy
// filter (names resolved against the policy registry, search/policy.hpp),
// graph factory variant, endpoint selector, replications, seed, budget and
// thread fan-out — and one measure_portfolio(plan) runs it. Pinned-seed
// goldens in tests/test_sweep_compat hold its outputs bit for bit.
//
// Replications can be fanned out over the deterministic parallel executor
// (base/parallel.hpp). Because every replication derives its own seeds from
// (seed, rep) and results are folded in replication order, the summaries
// are bit-identical for any thread count, including 1. Parallelism is
// opt-in (`threads` defaults to 1): passing 0 or >1 requires the caller's
// factory and endpoint selector to be safe to call concurrently.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gen/scratch.hpp"
#include "graph/graph.hpp"
#include "search/runner.hpp"
#include "stats/summary.hpp"

namespace sfs::sim {

/// Builds one experiment graph from a replication RNG.
using GraphFactory = std::function<graph::Graph(rng::Rng& rng)>;

/// Scratch-aware factory: regenerates `out` in place from the replication
/// RNG, recycling the worker's generator scratch and the Graph's own CSR
/// buffers (use the scratch-taking Móri overloads in gen/mori.hpp). The
/// harness holds one scratch and one graph slot per worker, so a portfolio
/// sweep allocates nothing per replication in steady state.
using ScratchGraphFactory = std::function<void(
    rng::Rng& rng, gen::GenScratch& scratch, graph::Graph& out)>;

/// Picks start/target on a freshly built graph (e.g. "vertex 0" and "last
/// vertex"). Called per replication.
using EndpointSelector =
    std::function<std::pair<graph::VertexId, graph::VertexId>(
        const graph::Graph& g, rng::Rng& rng)>;

/// Per-policy cost summary over the replications.
struct PolicyCost {
  std::string name;
  stats::Summary requests;       // charged requests
  stats::Summary raw_requests;   // incl. repeats (walks)
  double median_requests = 0.0;  // median charged requests over reps
  double p90_requests = 0.0;     // 90th percentile charged requests
  double found_fraction = 0.0;   // replications that reached the target
  // Churn columns (identically zero for static-graph measurements): probe
  // failures against a liveness mask, policy restarts consumed from the
  // RetryBudget, and the fraction of replications abandoned when that
  // budget ran dry (see search/runner.hpp).
  double mean_failed_requests = 0.0;
  double mean_restarts = 0.0;
  double abandoned_fraction = 0.0;
  // True when the min-path ceiling (RunPlan::reps) stopped this policy
  // because it could no longer beat the best. Its request counts are then
  // those at the stop, lower bounds of a full run's, and found_fraction is
  // 0 whether or not a full run would have found the target.
  bool pruned = false;
};

struct PortfolioCost {
  std::vector<PolicyCost> policies;
  /// Index into policies of the best policy. Selection rule: policies
  /// that found the target in every replication beat policies that
  /// missed it at least once; within the same success class, the lowest
  /// mean charged requests wins. Tie-break: on an exactly equal mean
  /// (and equal success class), the policy earliest in portfolio order —
  /// i.e. the lowest index, which for a full portfolio is registration
  /// order — is kept. With reps == 1 the later policies run under the
  /// min-path ceiling (see RunPlan::reps); `best` and its PolicyCost are
  /// exactly those of a run without it.
  std::size_t best = 0;

  /// The entry at `best`. Throws std::invalid_argument on an empty
  /// portfolio (a default-constructed PortfolioCost).
  [[nodiscard]] const PolicyCost& best_policy() const;
};

/// A portfolio measurement: everything one measurement needs, in one value.
/// Defaults: the model's full portfolio, sequential, default budget.
struct RunPlan {
  /// Knowledge model to run; every selected policy must be of this model.
  search::KnowledgeModel model = search::KnowledgeModel::kWeak;

  /// Policy filter, resolved against the policy registry
  /// (search/resolve_policies): empty = the model's full portfolio in
  /// registration order; otherwise the named policies in the given order.
  /// Unknown names, wrong-model policies and duplicates are checked
  /// errors. NOTE: each policy's RNG stream is tagged by its index in
  /// this selected portfolio, so a filtered run is paired (same graphs,
  /// same endpoints) with the full-portfolio run, and a policy keeps its
  /// full-portfolio stream only while its index matches its full-portfolio
  /// position (prefix selections do; reorderings do not).
  std::vector<std::string> policies;

  /// Exactly one of `factory` / `scratch_factory` must be set.
  GraphFactory factory;
  ScratchGraphFactory scratch_factory;

  EndpointSelector endpoints;

  /// Replications. With reps == 1, once a policy has found the target
  /// with c charged requests, each later policy runs with max_requests
  /// capped at c (the min-path ceiling): reaching c it can at best tie,
  /// and a tie keeps the earlier policy. A policy the ceiling stopped is
  /// marked PolicyCost::pruned; every other cost is exact. With reps >= 2
  /// every policy runs in full: `best` compares means, and no single
  /// replication bounds a mean.
  std::size_t reps = 1;
  std::uint64_t seed = 0;
  search::RunBudget budget;

  /// Replication fan-out: 1 (default) = sequential, 0 = the shared pool,
  /// n = a pool of n workers; the result is bit-identical in all cases.
  /// Any value other than 1 requires the factory and endpoint selector to
  /// be safe to call concurrently.
  std::size_t threads = 1;
};

/// Runs `plan`: every selected policy on `plan.reps` fresh graphs. Every
/// policy sees the same sequence of graphs (same graph seeds) and the same
/// endpoints, so the comparison is paired. Preconditions (checked):
/// endpoints set, exactly one factory variant set, reps >= 1, and a
/// non-empty resolved portfolio.
[[nodiscard]] PortfolioCost measure_portfolio(const RunPlan& plan);

/// Selector: start at vertex 0 (the paper's oldest vertex), target the last
/// vertex (the paper's vertex n).
[[nodiscard]] EndpointSelector oldest_to_newest();

/// Selector: uniform random start, target the last vertex.
[[nodiscard]] EndpointSelector random_to_newest();

/// Selector: start at the last vertex, target a fixed paper id (1-based).
[[nodiscard]] EndpointSelector newest_to_paper_id(std::size_t paper_id);

}  // namespace sfs::sim

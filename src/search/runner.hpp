// Drives a searcher against a LocalView until the target is found, the
// policy gives up, or a budget is exhausted.
//
// The workspace runs optionally take a liveness-masked view (graph::Overlay
// masks): failed probes (dead link / departed peer) are absorbed by a
// bounded RetryBudget instead of being surfaced to the policy — the policy
// only ever observes successful answers, and a search that keeps stranding
// is restarted (policy state reset, discovered knowledge retained) and
// finally abandoned. With empty masks (the default) the failure branch is
// unreachable and consumes no randomness, so a run over an all-alive
// overlay is bit-identical to the static run — the churn-rate-0
// acceptance invariant.
#pragma once

#include <cstdint>
#include <limits>

#include "search/searcher.hpp"

namespace sfs::search {

struct RunBudget {
  /// Cap on charged requests (distinct discoveries). The weak model can
  /// charge at most m requests and the strong model at most n, so the
  /// default of "no cap" always terminates for exhaustive policies.
  std::size_t max_requests = std::numeric_limits<std::size_t>::max();
  /// Cap on raw requests including cached repeats; this is what stops a
  /// random walk that keeps re-traversing known edges.
  std::size_t max_raw_requests = std::numeric_limits<std::size_t>::max();
};

/// Bounds on how much probe failure a liveness-masked run absorbs before
/// escalating. Failures are "consecutive" across requests: any successful
/// probe resets the streak.
struct RetryBudget {
  /// Failed probes in a row tolerated before the policy is restarted
  /// (searcher.start() again; the view keeps everything discovered so
  /// far, so a restart re-plans rather than re-pays).
  std::size_t max_consecutive_failures = 8;
  /// Restarts allowed before the search is abandoned outright.
  std::size_t max_restarts = 2;
};

struct SearchResult {
  bool found = false;
  /// Charged requests when the search stopped.
  std::size_t requests = 0;
  /// Raw requests (incl. repeats) when the search stopped.
  std::size_t raw_requests = 0;
  /// Probes that failed against the liveness mask (always 0 for static
  /// runs).
  std::size_t failed_requests = 0;
  /// Number of edges of the discovered start->target path (0 if !found and
  /// also 0 when start == target).
  std::size_t path_length = 0;
  /// True if the run stopped on a budget rather than success/exhaustion.
  bool budget_exhausted = false;
  /// True if the policy returned nullopt (gave up / exhausted region).
  bool gave_up = false;
  /// Policy restarts consumed from the RetryBudget.
  std::size_t restarts = 0;
  /// True if the run stopped because the RetryBudget ran dry.
  bool abandoned = false;
  friend bool operator==(const SearchResult&, const SearchResult&) = default;
};

/// The result the run `run` would have had under `budget`, for a static
/// run whose every request is charged (raw_requests == requests), made
/// under a budget at least as large. Such a run under the smaller budget
/// makes the same requests and stops at the first of: the target found,
/// requests reaching min(budget.max_requests, budget.max_raw_requests),
/// or the policy giving up. The runner checks the target before the
/// budgets and the budgets before asking the policy, so a run that found
/// the target after c requests stands under any cap >= c, and one that
/// gave up after c requests under any cap > c; otherwise the result is a
/// budget stop at the cap. Throws std::logic_error when `run` makes raw
/// requests or stopped on a budget below `budget`'s cap.
[[nodiscard]] SearchResult truncate_run(const SearchResult& run,
                                        const RunBudget& budget);

/// Runs a weak-model search for `target` from `start` on `g`.
[[nodiscard]] SearchResult run_weak(const graph::Graph& g,
                                    graph::VertexId start,
                                    graph::VertexId target,
                                    WeakSearcher& searcher, rng::Rng& rng,
                                    const RunBudget& budget = {});

/// Runs a strong-model search for `target` from `start` on `g`.
[[nodiscard]] SearchResult run_strong(const graph::Graph& g,
                                      graph::VertexId start,
                                      graph::VertexId target,
                                      StrongSearcher& searcher, rng::Rng& rng,
                                      const RunBudget& budget = {});

/// Workspace-reusing variants: identical results to the overloads above,
/// but all per-search state lives in `workspace`, so back-to-back runs on
/// same-size graphs allocate nothing. One workspace per worker thread.
///
/// `liveness` masks departed vertices and failed edges (usually
/// graph::Overlay's vertex_alive_mask / edge_alive_mask over
/// overlay.snapshot()), and `retry` bounds how much probe failure the run
/// absorbs. With empty masks the run is the static one, bit for bit.
[[nodiscard]] SearchResult run_weak(const graph::Graph& g,
                                    graph::VertexId start,
                                    graph::VertexId target,
                                    WeakSearcher& searcher, rng::Rng& rng,
                                    const RunBudget& budget,
                                    SearchWorkspace& workspace,
                                    LivenessView liveness = {},
                                    const RetryBudget& retry = {});

[[nodiscard]] SearchResult run_strong(const graph::Graph& g,
                                      graph::VertexId start,
                                      graph::VertexId target,
                                      StrongSearcher& searcher, rng::Rng& rng,
                                      const RunBudget& budget,
                                      SearchWorkspace& workspace,
                                      LivenessView liveness = {},
                                      const RetryBudget& retry = {});

}  // namespace sfs::search

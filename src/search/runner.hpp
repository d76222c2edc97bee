// Drives a searcher against a LocalView until the target is found, the
// policy gives up, or a budget is exhausted.
//
// drive, below, is the one search loop in src/. It is a template over the
// policy class: each final policy's run() override instantiates it on
// itself, in the .cpp that defines the policy's start, next and observe
// (search/weak_algorithms.cpp, strong_algorithms.cpp, simulate.cpp), so
// those calls bind statically, to definitions the compiler can inline.
// run_search (runner.cpp) builds the view in searcher.model() and calls
// searcher.run().
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
#include <type_traits>

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

/// The one search loop in the tree, instantiated once per final policy
/// class by that class's run(). It serves both models: the calls that
/// depend on the model are the probe (request_edge or request_vertex_span)
/// and observe, which only a weak searcher gets (a strong one reads its
/// answers off the view's known_vertices()). It also serves both static
/// and liveness-masked runs: the failure branch keys off
/// view.failed_requests(), which never moves without a liveness mask, so
/// a static run takes the exact pre-churn path (same calls, same RNG
/// draws) — bit-identity by construction, not by testing.
///
/// The branch order per iteration (target check, budgets, one policy
/// decision, one probe, failure/restart/abandon, weak observe) fixes the
/// calls and RNG draws a search makes; reordering it changes results.
template <typename Policy>
SearchResult drive(LocalView& view, Policy& searcher, rng::Rng& rng,
                   const RunBudget& budget, const RetryBudget& retry) {
  constexpr bool kWeak = std::is_base_of_v<WeakSearcher, Policy>;
  SearchResult r;
  std::size_t consecutive_failures = 0;
  searcher.start(view, rng);
  while (!view.target_found()) {
    if (view.requests() >= budget.max_requests ||
        view.raw_requests() >= budget.max_raw_requests) {
      r.budget_exhausted = true;
      break;
    }
    const auto req = searcher.next(view, rng);
    if (!req) {
      r.gave_up = true;
      break;
    }
    const std::size_t failures_before = view.failed_requests();
    [[maybe_unused]] graph::VertexId answer = graph::kNoVertex;
    if constexpr (kWeak) {
      answer = view.request_edge(*req);
    } else {
      (void)view.request_vertex_span(*req);
    }
    if (view.failed_requests() != failures_before) {
      // Stranded probe: the policy never observes it (the view already
      // marked the link or peer dead). Too many in a row -> restart the
      // policy on the retained knowledge; out of restarts -> abandon.
      if (++consecutive_failures > retry.max_consecutive_failures) {
        if (r.restarts >= retry.max_restarts) {
          r.abandoned = true;
          break;
        }
        ++r.restarts;
        consecutive_failures = 0;
        searcher.start(view, rng);
      }
      continue;
    }
    consecutive_failures = 0;
    if constexpr (kWeak) searcher.observe(view, *req, answer);
  }
  r.found = view.target_found();
  r.requests = view.requests();
  r.raw_requests = view.raw_requests();
  r.failed_requests = view.failed_requests();
  if (r.found) {
    const auto path = view.discovery_path();
    r.path_length = path.empty() ? 0 : path.size() - 1;
  }
  return r;
}

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

/// Runs `searcher` for `target` from `start` on `g`: builds the view in
/// searcher.model() and calls searcher.run() on it.
[[nodiscard]] SearchResult run_search(const graph::Graph& g,
                                      graph::VertexId start,
                                      graph::VertexId target,
                                      Searcher& searcher, rng::Rng& rng,
                                      const RunBudget& budget = {});

/// Workspace-reusing variant: identical results to the overload above,
/// but all per-search state lives in `workspace`, so back-to-back runs on
/// same-size graphs allocate nothing. One workspace per worker thread.
///
/// `liveness` masks departed vertices and failed edges (usually
/// graph::Overlay's vertex_alive_mask / edge_alive_mask over
/// overlay.snapshot()), and `retry` bounds how much probe failure the run
/// absorbs. With empty masks the run is the static one, bit for bit.
[[nodiscard]] SearchResult run_search(const graph::Graph& g,
                                      graph::VertexId start,
                                      graph::VertexId target,
                                      Searcher& searcher, rng::Rng& rng,
                                      const RunBudget& budget,
                                      SearchWorkspace& workspace,
                                      LivenessView liveness = {},
                                      const RetryBudget& retry = {});

}  // namespace sfs::search

#include "search/runner.hpp"

#include <algorithm>
#include <type_traits>

#include "base/check.hpp"

namespace sfs::search {

namespace {

// The probe: the request of either model.
graph::VertexId probe(LocalView& view, const WeakRequest& request) {
  return view.request_edge(request);
}

std::span<const graph::VertexId> probe(LocalView& view, graph::VertexId u) {
  return view.request_vertex_span(u);
}

// The one search loop in the tree. It serves both models: the calls
// that depend on the model are the probe above and observe, which only a
// weak searcher gets (a strong one reads its answers off the view's
// known_vertices()). It also serves both static and liveness-masked
// runs: the failure branch keys off view.failed_requests(), which never
// moves without a liveness mask, so a static run takes the exact
// pre-churn path (same calls, same RNG draws) — bit-identity by
// construction, not by testing.
//
// The branch order per iteration (target check, budgets, one policy
// decision, one probe, failure/restart/abandon, weak observe) fixes the
// calls and RNG draws a search makes; reordering it changes results.
template <typename Searcher>
SearchResult drive(LocalView& view, Searcher& searcher, rng::Rng& rng,
                   const RunBudget& budget, const RetryBudget& retry) {
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
    [[maybe_unused]] const auto answer = probe(view, *req);
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
    if constexpr (std::is_same_v<Searcher, WeakSearcher>) {
      searcher.observe(view, *req, answer);
    }
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

}  // namespace

SearchResult truncate_run(const SearchResult& run, const RunBudget& budget) {
  SFS_CHECK(run.raw_requests == run.requests && run.failed_requests == 0,
            "truncate_run needs a static run of charged requests only");
  const std::size_t cap =
      std::min(budget.max_requests, budget.max_raw_requests);
  if (run.found ? run.requests <= cap
                : !run.budget_exhausted && run.requests < cap) {
    return run;
  }
  SFS_CHECK(run.requests >= cap,
            "truncate_run: the run stopped on a budget below the cap");
  return SearchResult{
      .requests = cap, .raw_requests = cap, .budget_exhausted = true};
}

SearchResult run_weak(const graph::Graph& g, graph::VertexId start,
                      graph::VertexId target, WeakSearcher& searcher,
                      rng::Rng& rng, const RunBudget& budget) {
  SearchWorkspace workspace;
  LocalView view(g, KnowledgeModel::kWeak, start, target, workspace);
  return drive(view, searcher, rng, budget, RetryBudget{});
}

SearchResult run_strong(const graph::Graph& g, graph::VertexId start,
                        graph::VertexId target, StrongSearcher& searcher,
                        rng::Rng& rng, const RunBudget& budget) {
  SearchWorkspace workspace;
  LocalView view(g, KnowledgeModel::kStrong, start, target, workspace);
  return drive(view, searcher, rng, budget, RetryBudget{});
}

SearchResult run_weak(const graph::Graph& g, graph::VertexId start,
                      graph::VertexId target, WeakSearcher& searcher,
                      rng::Rng& rng, const RunBudget& budget,
                      SearchWorkspace& workspace, LivenessView liveness,
                      const RetryBudget& retry) {
  LocalView view(g, KnowledgeModel::kWeak, start, target, workspace, liveness);
  return drive(view, searcher, rng, budget, retry);
}

SearchResult run_strong(const graph::Graph& g, graph::VertexId start,
                        graph::VertexId target, StrongSearcher& searcher,
                        rng::Rng& rng, const RunBudget& budget,
                        SearchWorkspace& workspace, LivenessView liveness,
                        const RetryBudget& retry) {
  LocalView view(g, KnowledgeModel::kStrong, start, target, workspace,
                 liveness);
  return drive(view, searcher, rng, budget, retry);
}

}  // namespace sfs::search

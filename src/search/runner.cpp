#include "search/runner.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace sfs::search {

// The search loop is drive (runner.hpp). Each final policy class
// instantiates it in its run() override, in the .cpp that defines the
// policy, so these entry points build the view and make one virtual call
// per search.

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
  return searcher.run(view, rng, budget, RetryBudget{});
}

SearchResult run_strong(const graph::Graph& g, graph::VertexId start,
                        graph::VertexId target, StrongSearcher& searcher,
                        rng::Rng& rng, const RunBudget& budget) {
  SearchWorkspace workspace;
  LocalView view(g, KnowledgeModel::kStrong, start, target, workspace);
  return searcher.run(view, rng, budget, RetryBudget{});
}

SearchResult run_weak(const graph::Graph& g, graph::VertexId start,
                      graph::VertexId target, WeakSearcher& searcher,
                      rng::Rng& rng, const RunBudget& budget,
                      SearchWorkspace& workspace, LivenessView liveness,
                      const RetryBudget& retry) {
  LocalView view(g, KnowledgeModel::kWeak, start, target, workspace, liveness);
  return searcher.run(view, rng, budget, retry);
}

SearchResult run_strong(const graph::Graph& g, graph::VertexId start,
                        graph::VertexId target, StrongSearcher& searcher,
                        rng::Rng& rng, const RunBudget& budget,
                        SearchWorkspace& workspace, LivenessView liveness,
                        const RetryBudget& retry) {
  LocalView view(g, KnowledgeModel::kStrong, start, target, workspace,
                 liveness);
  return searcher.run(view, rng, budget, retry);
}

}  // namespace sfs::search

#include "search/runner.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace sfs::search {

// The search loop is drive (runner.hpp). Each final policy class
// instantiates it in its run() override, in the .cpp that defines the
// policy, so run_search builds the view and makes one virtual call per
// search.

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

SearchResult run_search(const graph::Graph& g, graph::VertexId start,
                        graph::VertexId target, Searcher& searcher,
                        rng::Rng& rng, const RunBudget& budget) {
  SearchWorkspace workspace;
  return run_search(g, start, target, searcher, rng, budget, workspace);
}

SearchResult run_search(const graph::Graph& g, graph::VertexId start,
                        graph::VertexId target, Searcher& searcher,
                        rng::Rng& rng, const RunBudget& budget,
                        SearchWorkspace& workspace, LivenessView liveness,
                        const RetryBudget& retry) {
  LocalView view(g, searcher.model(), start, target, workspace, liveness);
  return searcher.run(view, rng, budget, retry);
}

}  // namespace sfs::search

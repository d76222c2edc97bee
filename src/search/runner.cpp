#include "search/runner.hpp"

#include "search/drive.hpp"

namespace sfs::search {

namespace {

// One loop serves both static and liveness-masked runs. The failure
// branch keys off view.failed_requests(), which never moves without a
// liveness mask, so a static run takes the exact pre-churn path (same
// calls, same RNG draws) — bit-identity by construction, not by testing.
// The loop body lives in search/drive.hpp's step machines (so QueryEngine
// can interleave suspended searches); driving one to completion here IS
// the closed loop.
SearchResult drive_weak(LocalView& view, WeakSearcher& searcher, rng::Rng& rng,
                        const RunBudget& budget, const RetryBudget& retry) {
  WeakDrive drive(view, searcher, rng, budget, retry);
  while (drive.step()) {
  }
  return drive.result();
}

SearchResult drive_strong(LocalView& view, StrongSearcher& searcher,
                          rng::Rng& rng, const RunBudget& budget,
                          const RetryBudget& retry) {
  StrongDrive drive(view, searcher, rng, budget, retry);
  while (drive.step()) {
  }
  return drive.result();
}

}  // namespace

SearchResult run_weak(const graph::Graph& g, graph::VertexId start,
                      graph::VertexId target, WeakSearcher& searcher,
                      rng::Rng& rng, const RunBudget& budget) {
  LocalView view(g, KnowledgeModel::kWeak, start, target);
  return drive_weak(view, searcher, rng, budget, RetryBudget{});
}

SearchResult run_strong(const graph::Graph& g, graph::VertexId start,
                        graph::VertexId target, StrongSearcher& searcher,
                        rng::Rng& rng, const RunBudget& budget) {
  LocalView view(g, KnowledgeModel::kStrong, start, target);
  return drive_strong(view, searcher, rng, budget, RetryBudget{});
}

SearchResult run_weak(const graph::Graph& g, graph::VertexId start,
                      graph::VertexId target, WeakSearcher& searcher,
                      rng::Rng& rng, const RunBudget& budget,
                      SearchWorkspace& workspace, LivenessView liveness,
                      const RetryBudget& retry) {
  LocalView view(g, KnowledgeModel::kWeak, start, target, workspace, liveness);
  return drive_weak(view, searcher, rng, budget, retry);
}

SearchResult run_strong(const graph::Graph& g, graph::VertexId start,
                        graph::VertexId target, StrongSearcher& searcher,
                        rng::Rng& rng, const RunBudget& budget,
                        SearchWorkspace& workspace, LivenessView liveness,
                        const RetryBudget& retry) {
  LocalView view(g, KnowledgeModel::kStrong, start, target, workspace,
                 liveness);
  return drive_strong(view, searcher, rng, budget, retry);
}

}  // namespace sfs::search

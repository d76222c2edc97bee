#include "search/query_engine.hpp"

#include <string>

#include "base/check.hpp"
#include "base/parallel.hpp"
#include "graph/overlay.hpp"
#include "rng/stream_plan.hpp"
#include "search/local_view.hpp"

namespace sfs::search {

namespace {

// Per-query stream tag. Tempered through mix64 like the sweep's endpoint
// and policy tags (raw XOR tags alias across sessions whose seeds differ
// by a small XOR delta; see sim/sweep.cpp). The audit triple is
// (options.seed, kQueryStream, batch index).
const std::uint64_t kQueryStream = rng::mix64(0x10e57ULL);  // "lookup query"

}  // namespace

/// One worker's state: a searcher instance and the search scratch every
/// query on that worker reuses.
struct QueryEngine::Session {
  std::unique_ptr<WeakSearcher> weak;      // set iff model == kWeak
  std::unique_ptr<StrongSearcher> strong;  // set iff model == kStrong
  /// Stamp arrays and frontier, reused by every query on this worker.
  SearchWorkspace workspace;
  /// Overlay epoch this session last served (0 = fresh; overlay epochs
  /// start at 1, so a fresh session over an overlay always rebuilds its
  /// searcher into a counted, known-good state).
  std::uint64_t overlay_epoch = 0;
};

void QueryEngine::bind_policy(std::string_view policy) {
  spec_ = PolicyRegistry::instance().find(policy);
  SFS_REQUIRE(spec_ != nullptr,
              "QueryEngine: unknown policy '" + std::string(policy) +
                  "' (see sfsearch_cli policies for the registry)");
}

QueryEngine::QueryEngine(const graph::Graph& g, std::string_view policy,
                         QueryEngineOptions options)
    : graph_(&g), options_(options) {
  bind_policy(policy);
}

QueryEngine::QueryEngine(const graph::Overlay& overlay,
                         std::string_view policy, QueryEngineOptions options)
    : graph_(&overlay.snapshot()), overlay_(&overlay), options_(options) {
  bind_policy(policy);
}

QueryEngine::~QueryEngine() = default;

std::uint64_t QueryEngine::query_stream_seed(std::uint64_t index) const {
  return rng::StreamPlan(options_.seed, kQueryStream,
                         rng::StreamPlanVersion::kCounter)
      .stream_seed(index);
}

void QueryEngine::ensure_sessions(std::size_t workers) {
  while (sessions_.size() < workers) {
    sessions_.push_back(std::make_unique<Session>());
  }
  // A session gets a searcher when it is fresh and, over an overlay, again
  // whenever it last served an older epoch. Sequential on purpose — it
  // runs before the fan-out, so the rebuild counter needs no locking.
  const std::uint64_t epoch = overlay_ != nullptr ? overlay_->epoch() : 0;
  for (std::size_t w = 0; w < workers; ++w) {
    Session& session = *sessions_[w];
    const bool fresh = session.weak == nullptr && session.strong == nullptr;
    if (!fresh && session.overlay_epoch == epoch) continue;
    if (spec_->model == KnowledgeModel::kWeak) {
      session.weak = spec_->make_weak();
    } else {
      session.strong = spec_->make_strong();
    }
    if (session.overlay_epoch != epoch) {
      session.overlay_epoch = epoch;
      ++sessions_rebuilt_;
    }
  }
}

void QueryEngine::run_batch(std::span<const Query> queries,
                            std::span<SearchResult> results,
                            std::size_t threads) {
  SFS_REQUIRE(results.size() == queries.size(),
              "QueryEngine::run_batch: results span must match the batch "
              "size");
  // Validate the whole batch before running any of it: a malformed query
  // in the middle of a parallel batch must not leave half-written results.
  const std::size_t n = graph_->num_vertices();
  if (overlay_ != nullptr) {
    SFS_REQUIRE(overlay_->staged_joins() == 0,
                "QueryEngine::run_batch: overlay has staged joins; compact "
                "before serving queries");
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SFS_REQUIRE(queries[i].start < n && queries[i].target < n,
                "QueryEngine::run_batch: query " + std::to_string(i) +
                    " has endpoints outside the graph");
    if (overlay_ != nullptr) {
      SFS_REQUIRE(overlay_->alive(queries[i].start),
                  "QueryEngine::run_batch: query " + std::to_string(i) +
                      " starts at a departed vertex");
      SFS_REQUIRE(overlay_->alive(queries[i].target),
                  "QueryEngine::run_batch: query " + std::to_string(i) +
                      " targets a departed vertex");
    }
  }
  if (queries.empty()) return;

  ensure_sessions(base::resolve_worker_count(threads));
  // Epoch contract: the overlay must hold still for the whole batch.
  const std::uint64_t epoch_at_start =
      overlay_ != nullptr ? overlay_->epoch() : 0;
  const LivenessView liveness =
      overlay_ != nullptr ? LivenessView{overlay_->vertex_alive_mask(),
                                         overlay_->edge_alive_mask()}
                          : LivenessView{};
  const bool weak = spec_->model == KnowledgeModel::kWeak;
  // One task per query. Streams depend only on (seed, plan, batch index):
  // identical results for any thread count, and replayable for a fixed
  // batch.
  base::parallel_for(queries.size(), threads, [&](std::size_t i,
                                                  std::size_t worker) {
    Session& session = *sessions_[worker];
    const Query& q = queries[i];
    rng::Rng rng(query_stream_seed(i));
    results[i] =
        weak ? run_weak(*graph_, q.start, q.target, *session.weak, rng,
                        options_.budget, session.workspace, liveness,
                        options_.retry)
             : run_strong(*graph_, q.start, q.target, *session.strong, rng,
                          options_.budget, session.workspace, liveness,
                          options_.retry);
  });
  if (overlay_ != nullptr) {
    SFS_CHECK(overlay_->epoch() == epoch_at_start,
              "QueryEngine::run_batch: overlay mutated while the batch was "
              "running (single-writer contract violated)");
  }
  queries_served_ += queries.size();
}

std::vector<SearchResult> QueryEngine::run_batch(std::span<const Query> queries,
                                                 std::size_t threads) {
  std::vector<SearchResult> results(queries.size());
  run_batch(queries, results, threads);
  return results;
}

}  // namespace sfs::search

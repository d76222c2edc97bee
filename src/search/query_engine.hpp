// QueryEngine: batched search over ONE fixed, long-lived graph.
//
// The replication harnesses in sim/ answer "how expensive is a search on a
// fresh random graph?" — one query per generated graph. The paper's model
// also implies the opposite regime, the one P2P resource-discovery systems
// actually run: a single long-lived overlay serving many lookups (Adamic
// et al.'s Gnutella measurements; the dynamic-hypercube and
// resource-discovery systems in PAPERS.md). Nothing in-tree could express
// it without re-paying graph construction and workspace setup per query.
//
// A QueryEngine owns the per-session state for that regime: it binds to
// one graph and one policy of the table (search/policy.hpp), keeps one
// searcher instance + SearchWorkspace per worker, and
// runs query batches with deterministic per-query RNG streams:
//
//   query i of a batch draws its randomness from
//   audited_stream_seed(options.seed, kQueryStream, i)
//
// (rng/stream_audit.hpp: O(1) per query, with no derivation state). So a
// batch is a pure function of (graph, policy, options.seed, queries) —
// bit-identical for any thread count, including sequential, and replayable
// (re-running the same batch reproduces it — the property the
// thread-count audits in tests/test_query_engine rely on).
// Corollary: the stream index is the position WITHIN a batch, not a
// session-global counter, so query i of batch A and query i of batch B
// share randomness. Do not pool statistics across repeated same-seed
// batches as if they were independent samples; give each logical batch
// its own engine seed (or one big batch) when independence matters.
// Derivations go through the audited wrapper, so a batch run under
// SFS_RNG_AUDIT=1 verifies its streams (rng/stream_audit.hpp).
//
// Overlay binding (dynamic graphs): an engine constructed over a
// graph::Overlay serves departure-tolerant queries against the overlay's
// live topology (liveness masks + the runner's RetryBudget). Batches must
// observe a consistent snapshot, enforced with the overlay's epoch
// counter:
//
//   * a batch records the epoch before fanning out and SFS_CHECKs it
//     unchanged after the join — a mutation racing a running batch is a
//     contract violation, not a data race discovered the hard way;
//   * between batches the overlay may mutate freely: each session
//     remembers the epoch it last served, and run_batch rebuilds stale
//     sessions (fresh searcher instance; sessions_rebuilt() counts them)
//     before any query runs;
//   * staged joins must be committed (Overlay::compact /
//     maybe_compact) before serving — queries cannot route to a peer the
//     CSR snapshot has never seen.
//
// Threading: a QueryEngine is externally serialized — run_batch must not
// race itself or any other member call. Inside a batch, worker w touches
// only sessions_[w] (searcher, workspace), so no engine state is ever
// shared between two workers and the class carries no mutex and no
// capability annotations; the session/epoch bookkeeping above is the
// whole concurrency contract. See docs/ANALYSIS.md ("Capability
// annotations") for the per-class lock-ownership table.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "search/policy.hpp"
#include "search/runner.hpp"

namespace sfs::graph {
class Overlay;
}

namespace sfs::search {

/// One lookup: find `target` starting from `start` (internal 0-based ids).
struct Query {
  graph::VertexId start = graph::kNoVertex;
  graph::VertexId target = graph::kNoVertex;
  friend bool operator==(const Query&, const Query&) = default;
};

struct QueryEngineOptions {
  /// Budget applied to every query (see search/runner.hpp). The default is
  /// uncapped, which terminates for exhaustive policies; give walk
  /// policies a max_raw_requests cap.
  RunBudget budget;
  /// Base seed of the session's per-query streams.
  std::uint64_t seed = 0;
  /// Failure tolerance per query; only consulted by overlay-bound engines
  /// (static-graph queries cannot fail probes).
  RetryBudget retry;
};

class QueryEngine {
 public:
  /// Binds to `g` and the policy named `policy` (any model;
  /// the model is read off the policy's spec). Throws
  /// std::invalid_argument on an unknown policy name. The graph must
  /// outlive the engine.
  QueryEngine(const graph::Graph& g, std::string_view policy,
              QueryEngineOptions options = {});

  /// Overlay-bound engine: queries run departure-tolerant against
  /// `overlay`'s live topology, and batches enforce the epoch contract
  /// described above. The overlay must outlive the engine and must not be
  /// mutated while a batch is running.
  QueryEngine(const graph::Overlay& overlay, std::string_view policy,
              QueryEngineOptions options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const PolicySpec& policy() const noexcept { return *spec_; }
  [[nodiscard]] KnowledgeModel model() const noexcept { return spec_->model; }
  [[nodiscard]] const QueryEngineOptions& options() const noexcept {
    return options_;
  }
  /// Total queries run through this engine so far (all batches).
  [[nodiscard]] std::size_t queries_served() const noexcept {
    return queries_served_;
  }
  /// The bound overlay, or nullptr for a static-graph engine.
  [[nodiscard]] const graph::Overlay* overlay() const noexcept {
    return overlay_;
  }
  /// Sessions recreated because the overlay mutated between batches.
  [[nodiscard]] std::size_t sessions_rebuilt() const noexcept {
    return sessions_rebuilt_;
  }

  /// Re-seeds the per-query streams. Multi-round traffic over one engine
  /// (e.g. the d1_churn rounds between churn steps) must give every round
  /// its own seed — batch streams are positional, so same-seed rounds
  /// would replay identical randomness (see the header comment).
  void set_seed(std::uint64_t seed) noexcept { options_.seed = seed; }

  /// Runs every query; results[i] answers queries[i]. `threads` selects
  /// the fan-out: 1 (default) = sequential, 0 = the shared pool, n = a
  /// pool of n workers — bit-identical in all cases (per-query streams
  /// depend only on the batch index). Each query is one task running the
  /// runner loop (search/runner.hpp) with its worker's session. Validates
  /// every query's endpoints against the graph before running anything.
  /// `results` must be exactly queries.size() long.
  void run_batch(std::span<const Query> queries,
                 std::span<SearchResult> results, std::size_t threads = 1);

  /// Allocating convenience overload.
  [[nodiscard]] std::vector<SearchResult> run_batch(
      std::span<const Query> queries, std::size_t threads = 1);

 private:
  struct Session;
  void ensure_sessions(std::size_t workers);
  void bind_policy(std::string_view policy);

  const graph::Graph* graph_;
  const graph::Overlay* overlay_ = nullptr;  // null for static engines
  const PolicySpec* spec_;
  QueryEngineOptions options_;
  /// One session per worker index (a searcher instance + SearchWorkspace),
  /// grown on demand and reused across batches: steady-state batches
  /// allocate nothing in the engine itself.
  std::vector<std::unique_ptr<Session>> sessions_;
  std::size_t queries_served_ = 0;
  std::size_t sessions_rebuilt_ = 0;
};

}  // namespace sfs::search

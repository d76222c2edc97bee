// Tests for search::QueryEngine: the batched fixed-graph lookup runner.
// Core contract: a batch is a pure function of (graph, policy, seed,
// queries) — bit-identical for any thread count — verified here under the
// RNG stream audit.
#include "search/query_engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "gen/config_model.hpp"
#include "gen/mori.hpp"
#include "graph/algorithms.hpp"
#include "graph/overlay.hpp"
#include "rng/random.hpp"
#include "rng/stream_audit.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::VertexId;
using sfs::search::Query;
using sfs::search::QueryEngine;
using sfs::search::QueryEngineOptions;
using sfs::search::SearchResult;

Graph test_graph(std::size_t n = 300) {
  sfs::rng::Rng rng(99);
  return sfs::gen::merged_mori_graph(n, 2, sfs::gen::MoriParams{0.5}, rng);
}

std::vector<Query> test_queries(const Graph& g, std::size_t count,
                                std::uint64_t seed) {
  sfs::rng::Rng rng(seed);
  std::vector<Query> queries(count);
  for (auto& q : queries) {
    q.start = static_cast<VertexId>(rng.uniform_index(g.num_vertices()));
    do {
      q.target = static_cast<VertexId>(rng.uniform_index(g.num_vertices()));
    } while (q.target == q.start);
  }
  return queries;
}

void expect_identical(const std::vector<SearchResult>& a,
                      const std::vector<SearchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].found, b[i].found) << i;
    EXPECT_EQ(a[i].requests, b[i].requests) << i;
    EXPECT_EQ(a[i].raw_requests, b[i].raw_requests) << i;
    EXPECT_EQ(a[i].path_length, b[i].path_length) << i;
    EXPECT_EQ(a[i].budget_exhausted, b[i].budget_exhausted) << i;
    EXPECT_EQ(a[i].gave_up, b[i].gave_up) << i;
    EXPECT_EQ(a[i].failed_requests, b[i].failed_requests) << i;
    EXPECT_EQ(a[i].restarts, b[i].restarts) << i;
    EXPECT_EQ(a[i].abandoned, b[i].abandoned) << i;
  }
}

TEST(QueryEngine, UnknownPolicyIsCheckedError) {
  const Graph g = test_graph();
  EXPECT_THROW(QueryEngine(g, "no-such-policy"), std::invalid_argument);
}

TEST(QueryEngine, BindsPolicyAndModelFromTheRegistry) {
  const Graph g = test_graph();
  QueryEngine weak(g, "bfs");
  EXPECT_EQ(weak.policy().name, "bfs");
  EXPECT_EQ(weak.model(), sfs::search::KnowledgeModel::kWeak);
  QueryEngine strong(g, "degree-greedy-strong");
  EXPECT_EQ(strong.model(), sfs::search::KnowledgeModel::kStrong);
}

TEST(QueryEngine, ExhaustivePolicyAnswersEveryQuery) {
  const Graph g = test_graph();
  QueryEngine engine(g, "bfs-strong");
  const auto queries = test_queries(g, 40, 7);
  const auto results = engine.run_batch(queries);
  EXPECT_EQ(engine.queries_served(), 40u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.found);
    EXPECT_LE(r.requests, g.num_vertices());
  }
}

// The fixed-overlay lookup shape: the largest component of a gamma = 2.3
// configuration-model graph at n = 4000.
Graph lookup_overlay() {
  sfs::rng::Rng rng(0x2824d73b02b89383ULL);
  const Graph full = sfs::gen::power_law_configuration_graph(
      4000, sfs::gen::PowerLawSequenceParams{2.3, 1, 0},
      sfs::gen::ConfigModelOptions{false}, rng);
  return sfs::graph::largest_component(full).graph;
}

TEST(QueryEngine, BatchBitIdenticalAcrossThreadCounts) {
  // The acceptance-criteria audit: threads=1 vs threads=4 vs the shared
  // pool, all under SFS_RNG_AUDIT, for both knowledge models. random-walk
  // is the hardest weak case, since every step consumes RNG. Two inputs:
  // a small Móri graph, and a 200-lookup batch on the fixed overlay with a
  // 50 * peers budget, whose long walks keep every worker busy. Both are
  // built, and the overlay's size checked, before the audit is switched on.
  struct Input {
    Graph graph;
    std::vector<Query> queries;
    std::uint64_t budget;
    std::vector<const char*> policies;
  };
  std::vector<Input> inputs;
  const Graph mori = test_graph();
  inputs.push_back({mori, test_queries(mori, 30, 13), 20000,
                    {"random-walk", "degree-greedy-strong"}});
  const Graph overlay = lookup_overlay();
  ASSERT_EQ(overlay.num_vertices(), 2892u);
  inputs.push_back({overlay, test_queries(overlay, 200, 17),
                    50 * overlay.num_vertices(),
                    {"degree-greedy-strong", "bfs-strong", "random-walk"}});

  auto& audit = sfs::rng::StreamAudit::instance();
  const bool was_enabled = audit.enabled();
  audit.set_enabled(true);
  for (const Input& input : inputs) {
    for (const char* policy : input.policies) {
      audit.reset();
      QueryEngineOptions options;
      options.seed = 0xCAFE;
      options.budget.max_raw_requests = input.budget;
      QueryEngine engine(input.graph, policy, options);

      const auto seq = engine.run_batch(input.queries, /*threads=*/1);
      const auto par = engine.run_batch(input.queries, /*threads=*/4);
      const auto pool = engine.run_batch(input.queries, /*threads=*/0);
      expect_identical(seq, par);
      expect_identical(seq, pool);
      EXPECT_EQ(engine.queries_served(), 3 * input.queries.size()) << policy;
      // One audited derivation per distinct (seed, stream, batch index);
      // re-running the same batch re-records the same triples.
      EXPECT_EQ(audit.recorded_count(), input.queries.size()) << policy;
    }
  }

  audit.reset();
  audit.set_enabled(was_enabled);
}

TEST(QueryEngine, TwoEnginesSameSeedAgree) {
  const Graph g = test_graph();
  QueryEngineOptions options;
  options.seed = 42;
  options.budget.max_raw_requests = 20000;
  QueryEngine a(g, "random-frontier", options);
  QueryEngine b(g, "random-frontier", options);
  const auto queries = test_queries(g, 20, 3);
  expect_identical(a.run_batch(queries), b.run_batch(queries, 2));
}

TEST(QueryEngine, ResultsSpanOverloadMatchesAllocating) {
  const Graph g = test_graph();
  QueryEngine engine(g, "degree-greedy");
  const auto queries = test_queries(g, 10, 5);
  std::vector<SearchResult> results(queries.size());
  engine.run_batch(queries, results, /*threads=*/2);
  expect_identical(results, engine.run_batch(queries));
}

TEST(QueryEngine, ValidatesBatchBeforeRunningAnyOfIt) {
  const Graph g = test_graph(50);
  QueryEngine engine(g, "bfs");
  std::vector<Query> queries = test_queries(g, 4, 1);
  queries.push_back(Query{.start = 0, .target = 50});  // out of range
  EXPECT_THROW((void)engine.run_batch(queries), std::invalid_argument);
  EXPECT_EQ(engine.queries_served(), 0u);  // nothing ran

  std::vector<SearchResult> too_small(2);
  EXPECT_THROW(
      engine.run_batch(std::span<const Query>(queries.data(), 4), too_small),
      std::invalid_argument);
}

TEST(QueryEngine, EmptyBatchIsANoOp) {
  const Graph g = test_graph(50);
  QueryEngine engine(g, "bfs");
  const auto results = engine.run_batch({});
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(engine.queries_served(), 0u);
}

// --------------------------------------------------------- overlay binding

TEST(QueryEngineOverlay, UnknownPolicyIsCheckedError) {
  sfs::graph::Overlay overlay(test_graph(60));
  EXPECT_THROW(QueryEngine(overlay, "no-such-policy"), std::invalid_argument);
}

TEST(QueryEngineOverlay, PristineOverlayMatchesStaticEngineBitForBit) {
  // The churn-rate-0 contract at the engine level: an overlay that has
  // never mutated must answer exactly like a static engine on its
  // snapshot, for both knowledge models.
  sfs::graph::Overlay overlay(test_graph());
  const auto queries = test_queries(overlay.snapshot(), 25, 11);
  for (const char* policy : {"random-walk", "degree-greedy-strong"}) {
    QueryEngineOptions options;
    options.seed = 0xD1;
    options.budget.max_raw_requests = 20000;
    QueryEngine dynamic(overlay, policy, options);
    QueryEngine fixed(overlay.snapshot(), policy, options);
    expect_identical(dynamic.run_batch(queries, 2), fixed.run_batch(queries));
  }
}

TEST(QueryEngineOverlay, MaskedBatchEqualsPerQueryRunner) {
  // The churn path at the engine level: over departed peers and failed
  // links, a pooled batch must equal hand-rolled workspace runs over the
  // same snapshot, masks and retry budget, each with a fresh searcher and
  // the query's own stream.
  sfs::graph::Overlay overlay(test_graph());
  for (const VertexId v : {1u, 3u, 6u, 10u}) overlay.depart(v);
  for (sfs::graph::EdgeId e = 0; e < overlay.snapshot().num_edges(); e += 9) {
    overlay.fail_edge(e);
  }
  auto queries = test_queries(overlay.snapshot(), 40, 41);
  for (auto& q : queries) {  // steer clear of the departed vertices
    while (!overlay.alive(q.start)) ++q.start;
    while (!overlay.alive(q.target) || q.target == q.start) ++q.target;
  }
  const sfs::search::LivenessView liveness{overlay.vertex_alive_mask(),
                                           overlay.edge_alive_mask()};

  for (const char* policy : {"random-walk", "degree-greedy-strong"}) {
    QueryEngineOptions options;
    options.seed = 0xFA11;
    options.budget.max_raw_requests = 20000;
    options.retry = {.max_consecutive_failures = 2, .max_restarts = 1};
    QueryEngine engine(overlay, policy, options);
    const auto results = engine.run_batch(queries, /*threads=*/4);

    const sfs::search::PolicySpec& spec = engine.policy();
    sfs::search::SearchWorkspace ws;
    bool any_failed = false;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      sfs::rng::Rng rng(sfs::rng::audited_stream_seed(
          options.seed, sfs::rng::mix64(0x10e57ULL), i));
      const Query& q = queries[i];
      const SearchResult expected = sfs::search::run_search(
          overlay.snapshot(), q.start, q.target, *spec.make(), rng,
          options.budget, ws, liveness, options.retry);
      EXPECT_TRUE(results[i] == expected) << policy << " query " << i;
      any_failed |= results[i].failed_requests > 0;
    }
    EXPECT_TRUE(any_failed) << policy << ": no probe hit the masks";
  }
}

TEST(QueryEngineOverlay, DepartedEndpointsAreCheckedErrors) {
  sfs::graph::Overlay overlay(test_graph(80));
  overlay.depart(3);
  overlay.depart(7);
  QueryEngine engine(overlay, "bfs");
  const std::vector<Query> to_dead{Query{.start = 0, .target = 7}};
  const std::vector<Query> from_dead{Query{.start = 3, .target = 0}};
  EXPECT_THROW((void)engine.run_batch(to_dead), std::invalid_argument);
  EXPECT_THROW((void)engine.run_batch(from_dead), std::invalid_argument);
  EXPECT_EQ(engine.queries_served(), 0u);
  // A live pair on the same engine still runs.
  const std::vector<Query> live{Query{.start = 0, .target = 1}};
  EXPECT_EQ(engine.run_batch(live).size(), 1u);
  EXPECT_EQ(engine.queries_served(), 1u);
}

TEST(QueryEngineOverlay, StagedJoinsMustBeCompactedBeforeServing) {
  sfs::graph::Overlay overlay(test_graph(60));
  sfs::rng::Rng rng(5);
  (void)overlay.join(2, rng);
  QueryEngine engine(overlay, "bfs");
  const std::vector<Query> one{Query{.start = 0, .target = 1}};
  EXPECT_THROW((void)engine.run_batch(one), std::invalid_argument);
  overlay.compact();
  EXPECT_EQ(engine.run_batch(one).size(), 1u);
}

TEST(QueryEngineOverlay, MutationBetweenBatchesRebuildsSessions) {
  sfs::graph::Overlay overlay(test_graph());
  QueryEngineOptions options;
  options.budget.max_raw_requests = 20000;
  QueryEngine engine(overlay, "degree-greedy-strong", options);
  const auto queries = test_queries(overlay.snapshot(), 10, 21);
  (void)engine.run_batch(queries);
  // Fresh sessions count as rebuilds (overlay epochs start above the
  // session's initial marker); remember the baseline.
  const std::size_t baseline = engine.sessions_rebuilt();
  (void)engine.run_batch(queries);
  EXPECT_EQ(engine.sessions_rebuilt(), baseline);  // unchanged epoch: reuse
  overlay.depart(0);
  auto live_queries = test_queries(overlay.snapshot(), 10, 22);
  for (auto& q : live_queries) {  // steer clear of the departed vertex
    if (q.start == 0) q.start = 1;
    if (q.target <= 1) q.target = 2;
  }
  (void)engine.run_batch(live_queries);
  EXPECT_GT(engine.sessions_rebuilt(), baseline);  // stale epoch: rebuilt
}

TEST(QueryEngineOverlay, SetSeedGivesRoundsIndependentRandomness) {
  sfs::graph::Overlay overlay(test_graph());
  QueryEngineOptions options;
  options.seed = 1;
  options.budget.max_raw_requests = 20000;
  QueryEngine engine(overlay, "random-walk", options);
  const auto queries = test_queries(overlay.snapshot(), 12, 31);
  const auto round1 = engine.run_batch(queries);
  engine.set_seed(2);
  const auto round2 = engine.run_batch(queries);
  engine.set_seed(1);
  const auto replay = engine.run_batch(queries);
  expect_identical(round1, replay);  // same seed: bit-identical replay
  bool any_different = false;        // new seed: fresh randomness
  for (std::size_t i = 0; i < round1.size(); ++i) {
    any_different |= round1[i].raw_requests != round2[i].raw_requests;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace

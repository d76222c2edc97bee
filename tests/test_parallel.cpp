// Tests for the deterministic parallel replication engine and the
// zero-allocation search workspace: parallel results must be bit-identical
// to sequential, and workspace-reusing runs must match fresh-LocalView
// runs request-for-request.
#include "base/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/mori.hpp"
#include "graph/builder.hpp"
#include "search/policy.hpp"
#include "search/runner.hpp"
#include "search/weak_algorithms.hpp"
#include "sim/scaling.hpp"
#include "sim/sweep.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::VertexId;
using sfs::search::KnowledgeModel;
using sfs::search::LocalView;
using sfs::search::SearchResult;
using sfs::search::SearchWorkspace;
using sfs::sim::measure_portfolio;
using sfs::sim::oldest_to_newest;
using sfs::sim::PortfolioCost;
using sfs::sim::RunPlan;

sfs::sim::GraphFactory mori_factory(std::size_t n, double p) {
  return [n, p](sfs::rng::Rng& rng) {
    return sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng);
  };
}

// V2 plan API (docs/SEARCH.md): one value per measurement.
RunPlan mori_plan(KnowledgeModel model, std::size_t n, double p,
                  std::size_t reps, std::uint64_t seed,
                  std::size_t max_raw, std::size_t threads) {
  RunPlan plan;
  plan.model = model;
  plan.factory = mori_factory(n, p);
  plan.endpoints = oldest_to_newest();
  plan.reps = reps;
  plan.seed = seed;
  plan.budget.max_raw_requests = max_raw;
  plan.threads = threads;
  return plan;
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, CoversEveryTaskExactlyOnce) {
  sfs::base::ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t task, std::size_t worker) {
    EXPECT_LT(worker, 4u);
    hits[task].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  sfs::base::ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(8, [&](std::size_t task, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(task);  // safe: no threads with 1 worker
  });
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, PropagatesTaskException) {
  sfs::base::ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [](std::size_t task, std::size_t) {
                          if (task == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool must stay usable after a failed job.
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  sfs::base::ThreadPool pool(4);
  std::vector<std::atomic<int>> inner_hits(16);
  pool.parallel_for(4, [&](std::size_t outer, std::size_t) {
    pool.parallel_for(4, [&](std::size_t inner, std::size_t worker) {
      EXPECT_EQ(worker, 0u);  // nested tasks run inline on one thread
      inner_hits[outer * 4 + inner].fetch_add(1);
    });
  });
  for (const auto& h : inner_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  sfs::base::ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(
        100, [&](std::size_t task, std::size_t) {
          sum.fetch_add(static_cast<int>(task));
        });
    EXPECT_EQ(sum.load(), 4950);
  }
}

// Counts above kMaxWorkers fail their precondition before anything is
// allocated or started, so none of these calls starts a thread.
TEST(ThreadPool, RejectsWorkerCountsAboveTheLimit) {
  using sfs::base::kMaxWorkers;
  EXPECT_THROW({ sfs::base::ThreadPool pool(kMaxWorkers + 1); },
               std::invalid_argument);
  EXPECT_THROW((void)sfs::base::resolve_worker_count(kMaxWorkers + 1),
               std::invalid_argument);
  EXPECT_EQ(sfs::base::resolve_worker_count(kMaxWorkers), kMaxWorkers);
  EXPECT_THROW(sfs::base::parallel_for(1, kMaxWorkers + 1,
                                       [](std::size_t, std::size_t) {}),
               std::invalid_argument);
}

TEST(DefaultWorkerCount, EnvAboveTheLimitFallsBackToHardware) {
  const char* env = std::getenv("SFS_THREADS");
  const std::string saved = env != nullptr ? env : "";
  ::unsetenv("SFS_THREADS");
  const std::size_t hardware = sfs::base::default_worker_count();
  const std::string limit = std::to_string(sfs::base::kMaxWorkers);
  ::setenv("SFS_THREADS", limit.c_str(), 1);
  EXPECT_EQ(sfs::base::default_worker_count(), sfs::base::kMaxWorkers);
  const std::string above = std::to_string(sfs::base::kMaxWorkers + 1);
  ::setenv("SFS_THREADS", above.c_str(), 1);
  EXPECT_EQ(sfs::base::default_worker_count(), hardware);
  if (env != nullptr) {
    ::setenv("SFS_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("SFS_THREADS");
  }
}

// --------------------------------------------- parallel == sequential

void expect_identical(const PortfolioCost& a, const PortfolioCost& b) {
  ASSERT_EQ(a.policies.size(), b.policies.size());
  EXPECT_EQ(a.best, b.best);
  for (std::size_t i = 0; i < a.policies.size(); ++i) {
    const auto& pa = a.policies[i];
    const auto& pb = b.policies[i];
    EXPECT_EQ(pa.name, pb.name);
    // Bit-identical, not approximately equal: the fold order is fixed.
    EXPECT_EQ(pa.requests.mean, pb.requests.mean) << pa.name;
    EXPECT_EQ(pa.requests.stddev, pb.requests.stddev) << pa.name;
    EXPECT_EQ(pa.requests.min, pb.requests.min) << pa.name;
    EXPECT_EQ(pa.requests.max, pb.requests.max) << pa.name;
    EXPECT_EQ(pa.raw_requests.mean, pb.raw_requests.mean) << pa.name;
    EXPECT_EQ(pa.raw_requests.stddev, pb.raw_requests.stddev) << pa.name;
    EXPECT_EQ(pa.median_requests, pb.median_requests) << pa.name;
    EXPECT_EQ(pa.p90_requests, pb.p90_requests) << pa.name;
    EXPECT_EQ(pa.found_fraction, pb.found_fraction) << pa.name;
  }
}

TEST(ParallelPortfolio, WeakBitIdenticalToSequential) {
  const auto seq = measure_portfolio(
      mori_plan(KnowledgeModel::kWeak, 150, 0.5, 6, 42, 500000, 1));
  const auto par = measure_portfolio(
      mori_plan(KnowledgeModel::kWeak, 150, 0.5, 6, 42, 500000, 4));
  expect_identical(seq, par);
}

TEST(ParallelPortfolio, StrongBitIdenticalToSequential) {
  auto plan = mori_plan(KnowledgeModel::kStrong, 150, 0.4, 6, 7,
                        std::numeric_limits<std::size_t>::max(), 1);
  const auto seq = measure_portfolio(plan);
  plan.threads = 3;
  const auto par = measure_portfolio(plan);
  expect_identical(seq, par);
}

TEST(ParallelPortfolio, MedianAndP90AreOrdered) {
  const auto cost = measure_portfolio(
      mori_plan(KnowledgeModel::kWeak, 120, 0.5, 9, 5, 500000, 1));
  for (const auto& p : cost.policies) {
    EXPECT_LE(p.requests.min, p.median_requests) << p.name;
    EXPECT_LE(p.median_requests, p.p90_requests) << p.name;
    EXPECT_LE(p.p90_requests, p.requests.max) << p.name;
  }
}

TEST(ParallelScaling, BitIdenticalToSequential) {
  const std::vector<std::size_t> sizes{30, 60, 120};
  const auto measure = [](std::size_t n, std::uint64_t seed) {
    sfs::rng::Rng rng(seed);
    const Graph g = sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng);
    sfs::search::BfsWeak bfs;
    sfs::rng::Rng search_rng(seed ^ 1);
    return static_cast<double>(
        sfs::search::run_search(g, 0, static_cast<VertexId>(n - 1), bfs,
                                search_rng)
            .requests);
  };
  const auto seq = sfs::sim::measure_scaling(sizes, 5, 99, measure);
  const auto par =
      sfs::sim::measure_scaling(sizes, 5, 99, measure, {.threads = 4});
  ASSERT_EQ(seq.points.size(), par.points.size());
  for (std::size_t i = 0; i < seq.points.size(); ++i) {
    EXPECT_EQ(seq.points[i].raw, par.points[i].raw);
    EXPECT_EQ(seq.points[i].summary.mean, par.points[i].summary.mean);
  }
  EXPECT_EQ(seq.fit.slope, par.fit.slope);
}

// --------------------------------------- workspace reuse == fresh view

void expect_same_result(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.raw_requests, b.raw_requests);
  EXPECT_EQ(a.path_length, b.path_length);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
  EXPECT_EQ(a.gave_up, b.gave_up);
}

std::vector<std::unique_ptr<sfs::search::Searcher>> portfolio_of(
    KnowledgeModel model) {
  return sfs::search::make_searchers(
      sfs::search::resolve_policies(model, {}));
}

TEST(SearchWorkspace, WeakReuseMatchesFreshRunForRun) {
  SearchWorkspace ws;
  // Sequence of graphs of varying size, including shrinking ones: the
  // workspace must give identical results to a fresh view every time.
  for (const std::size_t n : {200, 50, 400, 400, 30}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      sfs::rng::Rng g_rng(seed);
      const Graph g =
          sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, g_rng);
      const auto portfolio = portfolio_of(KnowledgeModel::kWeak);
      for (std::size_t i = 0; i < portfolio.size(); ++i) {
        const auto budget =
            sfs::search::RunBudget{.max_raw_requests = 100000};
        sfs::rng::Rng r1(seed ^ (i + 17));
        sfs::rng::Rng r2(seed ^ (i + 17));
        const auto fresh_portfolio = portfolio_of(KnowledgeModel::kWeak);
        const SearchResult fresh = sfs::search::run_search(
            g, 0, static_cast<VertexId>(n - 1), *fresh_portfolio[i], r1,
            budget);
        const SearchResult reused = sfs::search::run_search(
            g, 0, static_cast<VertexId>(n - 1), *portfolio[i], r2, budget,
            ws);
        expect_same_result(fresh, reused);
      }
    }
  }
}

TEST(SearchWorkspace, StrongReuseMatchesFresh) {
  SearchWorkspace ws;
  for (const std::size_t n : {150, 60, 300}) {
    sfs::rng::Rng g_rng(n);
    const Graph g = sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.4}, g_rng);
    const auto portfolio = portfolio_of(KnowledgeModel::kStrong);
    for (std::size_t i = 0; i < portfolio.size(); ++i) {
      sfs::rng::Rng r1(i + 3);
      sfs::rng::Rng r2(i + 3);
      const auto fresh_portfolio = portfolio_of(KnowledgeModel::kStrong);
      const SearchResult fresh = sfs::search::run_search(
          g, 0, static_cast<VertexId>(n - 1), *fresh_portfolio[i], r1);
      const SearchResult reused = sfs::search::run_search(
          g, 0, static_cast<VertexId>(n - 1), *portfolio[i], r2, {}, ws);
      expect_same_result(fresh, reused);
    }
  }
}

TEST(SearchWorkspace, EpochResetClearsKnowledge) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const Graph g = b.build();
  SearchWorkspace ws;
  {
    LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
    (void)view.request_edge({0, 0});
    (void)view.request_edge({1, 1});
  }
  // Same workspace, new run: nothing from the previous run may leak.
  LocalView view(g, KnowledgeModel::kWeak, 0, 3, ws);
  EXPECT_TRUE(view.is_known(0));
  EXPECT_FALSE(view.is_known(1));
  EXPECT_EQ(view.first_unexplored_slot(0), std::optional<std::uint32_t>(0));
  EXPECT_EQ(view.requests(), 0u);
  EXPECT_EQ(view.known_vertices().size(), 1u);

  LocalView second(g, KnowledgeModel::kStrong, 1, 3, ws);
  EXPECT_TRUE(second.is_known(1));
  EXPECT_FALSE(second.is_known(0));
  EXPECT_FALSE(second.vertex_requested(1));
}

TEST(SearchWorkspace, PortfolioMeasurementMatchesAcrossThreadCounts) {
  // End-to-end: 1, 2 and 5 threads over a non-trivial replication count.
  const auto t1 = measure_portfolio(
      mori_plan(KnowledgeModel::kWeak, 100, 0.6, 10, 11, 200000, 1));
  const auto t2 = measure_portfolio(
      mori_plan(KnowledgeModel::kWeak, 100, 0.6, 10, 11, 200000, 2));
  const auto t5 = measure_portfolio(
      mori_plan(KnowledgeModel::kWeak, 100, 0.6, 10, 11, 200000, 5));
  expect_identical(t1, t2);
  expect_identical(t1, t5);
}

// ------------------------------------------------- seed derivation

TEST(DeriveStreamSeed, StreamZeroKeepsHistoricalSeeds) {
  // The graph stream must reproduce the historical per-rep seeds
  // mix64(seed ^ mix64(0x5eed + rep)), or every recorded experiment table
  // would silently change. Any other tag enters by XOR into the seed.
  using sfs::rng::mix64;
  for (std::uint64_t rep = 0; rep < 20; ++rep) {
    // SFS_LINT_ALLOW(raw-derive): this test pins the raw derivation chain itself
    EXPECT_EQ(sfs::rng::derive_stream_seed(123, 0, rep),
              mix64(123 ^ mix64(0x5eedULL + rep)));
    // SFS_LINT_ALLOW(raw-derive): this test pins the raw derivation chain itself
    EXPECT_EQ(sfs::rng::derive_stream_seed(123, 0xabcdef, rep),
              // SFS_LINT_ALLOW(raw-derive): this test pins the raw derivation chain itself
              sfs::rng::derive_stream_seed(123 ^ 0xabcdef, 0, rep));
  }
}

TEST(DeriveStreamSeed, StreamsAreDistinct) {
  // SFS_LINT_ALLOW(raw-derive): this test pins the raw derivation chain itself
  EXPECT_NE(sfs::rng::derive_stream_seed(5, 1, 0),
            // SFS_LINT_ALLOW(raw-derive): this test pins the raw derivation chain itself
            sfs::rng::derive_stream_seed(5, 2, 0));
  // SFS_LINT_ALLOW(raw-derive): this test pins the raw derivation chain itself
  EXPECT_NE(sfs::rng::derive_stream_seed(5, 1, 0),
            // SFS_LINT_ALLOW(raw-derive): this test pins the raw derivation chain itself
            sfs::rng::derive_stream_seed(5, 1, 1));
}

// ---------------------------------------------------- graph fast path

TEST(GraphAdjacent, AlignedWithIncidence) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 2);  // self-loop
  b.add_edge(0, 1);  // parallel edge
  b.add_edge(4, 0);
  const Graph g = b.build();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto inc = g.incident(v);
    const auto adj = g.adjacent(v);
    ASSERT_EQ(inc.size(), adj.size());
    for (std::size_t i = 0; i < inc.size(); ++i) {
      const auto& ed = g.edge(inc[i]);
      ASSERT_TRUE(ed.tail == v || ed.head == v)
          << "vertex " << v << " slot " << i;
      EXPECT_EQ(adj[i], ed.tail == v ? ed.head : ed.tail)
          << "vertex " << v << " slot " << i;
    }
  }
  // Self-loop contributes the vertex itself twice.
  const auto loop_adj = g.adjacent(2);
  EXPECT_EQ(std::count(loop_adj.begin(), loop_adj.end(), 2u), 2);
}

}  // namespace

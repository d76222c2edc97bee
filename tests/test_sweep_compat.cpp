// Bit-identity goldens of the portfolio engine, plus its paired design.
//
// The golden numbers below were captured by running the pre-redesign
// sweep.cpp (PR 4 tree) with the exact configuration in golden_*_cost():
// merged Mori graph n=200 m=2 p=0.5, reps=6, seed 0xD0C5EED. Exact
// double equality is intentional — measure_portfolio(RunPlan) promises
// bit-identity with those outputs, not approximate agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "base/sync.hpp"
#include "gen/mori.hpp"
#include "sim/sweep.hpp"

namespace {

using sfs::graph::Graph;
using sfs::rng::Rng;
using sfs::search::KnowledgeModel;
using sfs::sim::measure_portfolio;
using sfs::sim::PortfolioCost;
using sfs::sim::RunPlan;

constexpr std::uint64_t kGoldenSeed = 0xD0C5EEDULL;

sfs::sim::GraphFactory golden_factory() {
  return [](Rng& rng) {
    return sfs::gen::merged_mori_graph(200, 2, sfs::gen::MoriParams{0.5},
                                       rng);
  };
}

PortfolioCost golden_weak_cost() {
  return measure_portfolio({
      .model = KnowledgeModel::kWeak,
      .factory = golden_factory(),
      .endpoints = sfs::sim::oldest_to_newest(),
      .reps = 6,
      .seed = kGoldenSeed,
      .budget = {.max_raw_requests = 8000},
  });
}

PortfolioCost golden_strong_cost() {
  return measure_portfolio({
      .model = KnowledgeModel::kStrong,
      .factory = golden_factory(),
      .endpoints = sfs::sim::random_to_newest(),
      .reps = 6,
      .seed = kGoldenSeed,
  });
}

struct Golden {
  const char* name;
  double mean_requests;
  double mean_raw;
  double median;
  double p90;
  double found_fraction;
};

void expect_matches_golden(const PortfolioCost& cost,
                           const std::vector<Golden>& golden,
                           std::size_t expected_best) {
  ASSERT_EQ(cost.policies.size(), golden.size());
  EXPECT_EQ(cost.best, expected_best);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const auto& p = cost.policies[i];
    const auto& g = golden[i];
    EXPECT_EQ(p.name, g.name) << "index " << i;
    // Exact: the bit-identity contract, not a tolerance check.
    EXPECT_EQ(p.requests.mean, g.mean_requests) << p.name;
    EXPECT_EQ(p.raw_requests.mean, g.mean_raw) << p.name;
    EXPECT_EQ(p.median_requests, g.median) << p.name;
    EXPECT_EQ(p.p90_requests, g.p90) << p.name;
    EXPECT_EQ(p.found_fraction, g.found_fraction) << p.name;
  }
}

TEST(SweepCompat, WeakPortfolioReproducesPreRedesignGolden) {
  const std::vector<Golden> golden{
      {"bfs", 153.33333333333331, 153.33333333333331, 175.5, 226.5, 1},
      {"dfs", 354.5, 354.5, 361.5, 378, 1},
      {"degree-greedy", 167.83333333333334, 167.83333333333334, 171.5, 282,
       1},
      {"min-id-greedy", 180.5, 180.5, 156, 327.5, 1},
      {"max-id-greedy", 118.66666666666666, 118.66666666666666, 98, 185, 1},
      {"random-frontier", 299.16666666666669, 299.16666666666669, 315.5,
       375, 1},
      {"frontier-walk", 344.33333333333337, 460.66666666666669, 360.5,
       388.5, 1},
      {"no-backtrack-walk", 216.83333333333334, 356.16666666666669, 204,
       298.5, 1},
      {"random-walk", 220.83333333333334, 636.66666666666674, 264.5, 336.5,
       1},
      {"weak-sim(degree-greedy-strong)", 170.5, 170.5, 171.5, 282, 1},
  };
  expect_matches_golden(golden_weak_cost(), golden, /*expected_best=*/4);
}

TEST(SweepCompat, StrongPortfolioReproducesPreRedesignGolden) {
  const std::vector<Golden> golden{
      {"degree-greedy-strong", 13.833333333333332, 13.833333333333332, 9.5,
       29.5, 1},
      {"bfs-strong", 23.666666666666668, 23.666666666666668, 18.5, 47.5, 1},
      {"random-strong", 51, 51, 14, 134, 1},
      {"min-id-strong", 25.166666666666668, 25.166666666666668, 12, 61, 1},
      {"max-id-strong", 49.5, 49.5, 49.5, 85.5, 1},
  };
  expect_matches_golden(golden_strong_cost(), golden, /*expected_best=*/0);
}

// ------------------------------------------------ paired-design contract

TEST(SweepPairedDesign, EveryPolicySeesTheIdenticalGraphSequence) {
  // The paired-comparison regression: one graph per replication, shared by
  // ALL policies. The factory must run exactly `reps` times (NOT
  // reps x policies), and the graph RNG sequence must not depend on which
  // policies are selected.
  sfs::base::Mutex mu;
  std::vector<std::uint64_t> first_draws;
  std::atomic<std::size_t> calls{0};
  const auto recording_factory = [&](Rng& rng) {
    calls.fetch_add(1);
    Graph g = sfs::gen::mori_tree(60, sfs::gen::MoriParams{0.5}, rng);
    const sfs::base::MutexLock lock(mu);
    first_draws.push_back(rng.u64());
    return g;
  };

  RunPlan plan;
  plan.factory = recording_factory;
  plan.endpoints = sfs::sim::oldest_to_newest();
  plan.reps = 5;
  plan.seed = 77;
  plan.budget.max_raw_requests = 100000;

  const auto full = measure_portfolio(plan);
  EXPECT_EQ(calls.load(), 5u);  // one graph per replication, not per policy
  auto full_draws = first_draws;
  std::sort(full_draws.begin(), full_draws.end());

  calls = 0;
  first_draws.clear();
  plan.policies = {"bfs", "dfs"};  // prefix of the registered portfolio
  const auto subset = measure_portfolio(plan);
  EXPECT_EQ(calls.load(), 5u);
  auto subset_draws = first_draws;
  std::sort(subset_draws.begin(), subset_draws.end());

  // Same graph seeds regardless of the policy filter (sorted: the
  // replication order is deterministic here, but sorting keeps the check
  // valid for any thread count).
  EXPECT_EQ(full_draws, subset_draws);

  // And the shared graphs make the comparison paired: a prefix selection
  // keeps each policy's portfolio index, hence its exact RNG stream, so
  // bfs/dfs results are bit-identical to their full-portfolio entries.
  ASSERT_EQ(subset.policies.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(subset.policies[i].name, full.policies[i].name);
    EXPECT_EQ(subset.policies[i].requests.mean,
              full.policies[i].requests.mean);
    EXPECT_EQ(subset.policies[i].raw_requests.mean,
              full.policies[i].raw_requests.mean);
    EXPECT_EQ(subset.policies[i].median_requests,
              full.policies[i].median_requests);
  }
}

}  // namespace

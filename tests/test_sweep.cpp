// Tests for portfolio search-cost measurement (the v2 RunPlan API; the v1
// compat wrappers are covered by test_sweep_compat.cpp).
#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/mori.hpp"
#include "generator_families.hpp"
#include "graph/builder.hpp"
#include "rng/random.hpp"
#include "rng/stream_audit.hpp"
#include "search/policy.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::VertexId;
using sfs::search::KnowledgeModel;
using sfs::search::SearchResult;
using sfs::sim::measure_portfolio;
using sfs::sim::newest_to_paper_id;
using sfs::sim::oldest_to_newest;
using sfs::sim::random_to_newest;
using sfs::sim::RunPlan;

sfs::sim::GraphFactory mori_factory(std::size_t n, double p) {
  return [n, p](sfs::rng::Rng& rng) {
    return sfs::gen::mori_tree(n, sfs::gen::MoriParams{p}, rng);
  };
}

RunPlan weak_plan(std::size_t n, double p, std::size_t reps,
                  std::uint64_t seed) {
  RunPlan plan;
  plan.factory = mori_factory(n, p);
  plan.endpoints = oldest_to_newest();
  plan.reps = reps;
  plan.seed = seed;
  plan.budget.max_raw_requests = 500000;
  return plan;
}

TEST(MeasurePortfolio, AllWeakPoliciesSucceedOnTrees) {
  const auto cost = measure_portfolio(weak_plan(200, 0.5, 8, 1));
  ASSERT_EQ(cost.policies.size(), 10u);
  for (const auto& p : cost.policies) {
    EXPECT_DOUBLE_EQ(p.found_fraction, 1.0) << p.name;
    EXPECT_EQ(p.requests.count, 8u);
    EXPECT_GT(p.requests.mean, 0.0);
    EXPECT_GE(p.raw_requests.mean, p.requests.mean);
  }
}

TEST(MeasurePortfolio, BestIsLowestMeanAmongComplete) {
  const auto cost = measure_portfolio(weak_plan(150, 0.5, 6, 2));
  const auto& best = cost.best_policy();
  for (const auto& p : cost.policies) {
    if (p.found_fraction >= 1.0) {
      EXPECT_LE(best.requests.mean, p.requests.mean) << p.name;
    }
  }
}

TEST(MeasurePortfolio, DeterministicForSeed) {
  const auto a = measure_portfolio(weak_plan(100, 0.5, 4, 3));
  const auto b = measure_portfolio(weak_plan(100, 0.5, 4, 3));
  for (std::size_t i = 0; i < a.policies.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.policies[i].requests.mean,
                     b.policies[i].requests.mean);
  }
}

TEST(MeasurePortfolio, AllStrongPoliciesSucceed) {
  RunPlan plan;
  plan.model = KnowledgeModel::kStrong;
  plan.factory = mori_factory(200, 0.3);
  plan.endpoints = oldest_to_newest();
  plan.reps = 6;
  plan.seed = 4;
  const auto cost = measure_portfolio(plan);
  ASSERT_EQ(cost.policies.size(), 5u);
  for (const auto& p : cost.policies) {
    EXPECT_DOUBLE_EQ(p.found_fraction, 1.0) << p.name;
    // Strong requests bounded by vertex count.
    EXPECT_LE(p.requests.max, 200.0);
  }
}

// ------------------------------------------------- plan validation

TEST(MeasurePortfolio, PolicyFilterSelectsNamedPolicies) {
  auto plan = weak_plan(100, 0.5, 3, 5);
  plan.policies = {"bfs", "random-walk"};
  const auto cost = measure_portfolio(plan);
  ASSERT_EQ(cost.policies.size(), 2u);
  EXPECT_EQ(cost.policies[0].name, "bfs");
  EXPECT_EQ(cost.policies[1].name, "random-walk");
}

TEST(MeasurePortfolio, UnknownPolicyIsCheckedError) {
  auto plan = weak_plan(100, 0.5, 3, 5);
  plan.policies = {"bfs", "no-such-policy"};
  EXPECT_THROW((void)measure_portfolio(plan), std::invalid_argument);
}

TEST(MeasurePortfolio, WrongModelPolicyIsCheckedError) {
  auto plan = weak_plan(100, 0.5, 3, 5);
  plan.policies = {"bfs-strong"};  // strong policy on a weak plan
  EXPECT_THROW((void)measure_portfolio(plan), std::invalid_argument);
}

TEST(MeasurePortfolio, DuplicatePolicyIsCheckedError) {
  auto plan = weak_plan(100, 0.5, 3, 5);
  plan.policies = {"bfs", "bfs"};
  EXPECT_THROW((void)measure_portfolio(plan), std::invalid_argument);
}

TEST(MeasurePortfolio, MissingEndpointsIsCheckedError) {
  auto plan = weak_plan(100, 0.5, 3, 5);
  plan.endpoints = nullptr;
  EXPECT_THROW((void)measure_portfolio(plan), std::invalid_argument);
}

TEST(MeasurePortfolio, BothOrNeitherFactoryIsCheckedError) {
  auto plan = weak_plan(100, 0.5, 3, 5);
  plan.scratch_factory = [](sfs::rng::Rng& rng, sfs::gen::GenScratch&,
                            Graph& out) {
    out = sfs::gen::mori_tree(50, sfs::gen::MoriParams{0.5}, rng);
  };
  EXPECT_THROW((void)measure_portfolio(plan), std::invalid_argument);
  plan.factory = nullptr;
  plan.scratch_factory = nullptr;
  EXPECT_THROW((void)measure_portfolio(plan), std::invalid_argument);
}

TEST(PortfolioCost, BestPolicyOnEmptyPortfolioIsCheckedError) {
  // A default-constructed result has no policies; v1 threw a bare
  // std::out_of_range from vector::at(0).
  const sfs::sim::PortfolioCost empty;
  try {
    (void)empty.best_policy();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("empty portfolio"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------- selectors

TEST(Selectors, OldestToNewest) {
  sfs::rng::Rng rng(5);
  const Graph g = sfs::gen::mori_tree(50, sfs::gen::MoriParams{0.5}, rng);
  sfs::rng::Rng sel_rng(6);
  const auto [s, t] = oldest_to_newest()(g, sel_rng);
  EXPECT_EQ(s, 0u);
  EXPECT_EQ(t, 49u);
}

TEST(Selectors, RandomToNewestAvoidsTarget) {
  sfs::rng::Rng rng(7);
  const Graph g = sfs::gen::mori_tree(20, sfs::gen::MoriParams{0.5}, rng);
  for (std::uint64_t i = 0; i < 50; ++i) {
    sfs::rng::Rng sel_rng(i);
    const auto [s, t] = random_to_newest()(g, sel_rng);
    EXPECT_EQ(t, 19u);
    EXPECT_NE(s, t);
    EXPECT_LT(s, 20u);
  }
}

TEST(Selectors, NewestToPaperId) {
  sfs::rng::Rng rng(8);
  const Graph g = sfs::gen::mori_tree(30, sfs::gen::MoriParams{0.5}, rng);
  sfs::rng::Rng sel_rng(9);
  const auto [s, t] = newest_to_paper_id(1)(g, sel_rng);
  EXPECT_EQ(s, 29u);
  EXPECT_EQ(t, 0u);  // paper id 1 = internal 0
  EXPECT_THROW((void)newest_to_paper_id(31)(g, sel_rng),
               std::invalid_argument);
}

TEST(MeasurePortfolio, SearchingRootIsCheaperThanNewest) {
  // The asymmetry at the heart of the paper: old vertices are easy to find
  // (high degree, age gradient), the newest is hard.
  auto to_root_plan = weak_plan(400, 0.5, 6, 10);
  to_root_plan.endpoints = newest_to_paper_id(1);
  const auto to_root = measure_portfolio(to_root_plan);
  const auto to_newest = measure_portfolio(weak_plan(400, 0.5, 6, 10));
  EXPECT_LT(to_root.best_policy().requests.mean,
            to_newest.best_policy().requests.mean);
}

// ------------------------------------------------- min-path ceiling
//
// With reps == 1, policies after the first one to find the target run
// capped at the best charged count so far. The oracle below runs every
// policy in full, by hand, on the graph, endpoints and RNG streams
// measure_portfolio derives for replication `rep`.

// With `ceiling`, each policy runs with max_requests capped at the fewest
// charged requests an earlier run found the target with: the runs
// measure_portfolio makes at reps == 1, with every policy run for real.
std::vector<SearchResult> full_runs(const RunPlan& plan, std::uint64_t rep,
                                    bool ceiling = false) {
  const auto stream = [&](std::uint64_t tag) {
    return sfs::rng::Rng(sfs::rng::audited_stream_seed(plan.seed, tag, rep));
  };
  auto graph_rng = stream(0);
  const Graph g = plan.factory(graph_rng);
  auto endpoint_rng = stream(sfs::rng::mix64(0xabcdef));
  const auto [start, target] = plan.endpoints(g, endpoint_rng);
  const auto specs = sfs::search::resolve_policies(plan.model, plan.policies);
  std::vector<SearchResult> out;
  auto budget = plan.budget;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto rng = stream(sfs::rng::mix64(0x5ea7c4 + i));
    out.push_back(sfs::search::run_search(g, start, target, *specs[i]->make(),
                                          rng, budget));
    if (ceiling && out.back().found) {
      budget.max_requests = std::min(budget.max_requests, out.back().requests);
    }
  }
  return out;
}

// PortfolioCost::best over single runs, from its documented rule: the
// lowest charged count among the runs that found the target (among all
// runs if none did), earliest index on a tie.
std::size_t best_of(const std::vector<SearchResult>& runs) {
  const bool any_found = std::any_of(runs.begin(), runs.end(),
                                     [](const auto& r) { return r.found; });
  std::size_t best = runs.size();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].found != any_found) continue;
    if (best == runs.size() || runs[i].requests < runs[best].requests) {
      best = i;
    }
  }
  return best;
}

void expect_summary_of(const sfs::stats::Summary& got,
                       const std::vector<double>& values,
                       const std::string& what) {
  const auto want = sfs::stats::summarize(values);
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.mean, want.mean) << what;
  EXPECT_EQ(got.variance, want.variance) << what;
  EXPECT_EQ(got.stddev, want.stddev) << what;
  EXPECT_EQ(got.stderr_mean, want.stderr_mean) << what;
  EXPECT_EQ(got.min, want.min) << what;
  EXPECT_EQ(got.max, want.max) << what;
}

// Every field of a one-replication PolicyCost against the full run (or,
// with `pruned`, against the run the ceiling stopped).
void expect_cost_of(const sfs::sim::PolicyCost& got, const SearchResult& full,
                    const std::string& what, bool pruned = false) {
  const auto req = static_cast<double>(full.requests);
  expect_summary_of(got.requests, {req}, what);
  expect_summary_of(got.raw_requests,
                    {static_cast<double>(full.raw_requests)}, what);
  EXPECT_EQ(got.median_requests, req) << what;
  EXPECT_EQ(got.p90_requests, req) << what;
  EXPECT_EQ(got.found_fraction, full.found ? 1.0 : 0.0) << what;
  EXPECT_EQ(got.mean_failed_requests,
            static_cast<double>(full.failed_requests))
      << what;
  EXPECT_EQ(got.mean_restarts, static_cast<double>(full.restarts)) << what;
  EXPECT_EQ(got.abandoned_fraction, full.abandoned ? 1.0 : 0.0) << what;
  EXPECT_EQ(got.pruned, pruned) << what;
}

// measure_portfolio(plan) at reps == 1 against the full runs. Returns the
// number of pruned policies.
std::size_t expect_ceiling_exact(const RunPlan& plan,
                                 const std::string& what) {
  const auto cost = measure_portfolio(plan);
  const auto full = full_runs(plan, 0);
  EXPECT_EQ(cost.policies.size(), full.size()) << what;
  if (cost.policies.size() != full.size()) return 0;
  const std::size_t best = best_of(full);
  EXPECT_EQ(cost.best, best) << what;
  std::size_t pruned = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    const auto& pol = cost.policies[i];
    const std::string who = what + " " + pol.name;
    if (!pol.pruned) {
      expect_cost_of(pol, full[i], who);
      continue;
    }
    ++pruned;
    // Counts at the stop: lower bounds of the full run's, at or above the
    // best count. The full run either misses the target or needs more
    // than the best, so the policy could not have won.
    EXPECT_NE(i, best) << who;
    EXPECT_EQ(pol.found_fraction, 0.0) << who;
    EXPECT_LE(pol.requests.mean, static_cast<double>(full[i].requests))
        << who;
    EXPECT_LE(pol.raw_requests.mean,
              static_cast<double>(full[i].raw_requests))
        << who;
    EXPECT_GE(pol.requests.mean, static_cast<double>(full[best].requests))
        << who;
    EXPECT_TRUE(!full[i].found || full[i].requests > full[best].requests)
        << who;
  }
  return pruned;
}

TEST(MinPathCeiling, BestAndUnprunedCostsMatchFullRunsOnEveryFamily) {
  const std::size_t n = 256;
  std::size_t pruned = 0;
  for (const auto& family : sfs::test::generator_families(n)) {
    for (const auto model : {KnowledgeModel::kWeak, KnowledgeModel::kStrong}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RunPlan plan;
        plan.model = model;
        plan.factory = family.make;
        plan.endpoints = oldest_to_newest();
        plan.seed = seed;
        plan.budget.max_raw_requests = 40 * n;
        pruned += expect_ceiling_exact(
            plan, family.name + " " +
                      std::string(sfs::search::model_name(model)) +
                      " seed " + std::to_string(seed));
      }
    }
  }
  EXPECT_GT(pruned, 0u);  // the ceiling was exercised
}

TEST(MinPathCeiling, TieKeepsTheEarlierPolicy) {
  // On an m = 1 Mori tree, dfs and max-id-greedy pay the same count, so
  // whichever runs second reaches the ceiling exactly as it finds the
  // target: found, not pruned, and the earlier policy stays best.
  for (const std::vector<std::string>& order :
       {std::vector<std::string>{"dfs", "max-id-greedy"},
        std::vector<std::string>{"max-id-greedy", "dfs"}}) {
    auto plan = weak_plan(300, 0.5, 1, 11);
    plan.policies = order;
    const auto full = full_runs(plan, 0);
    ASSERT_TRUE(full[0].found);
    ASSERT_EQ(full[0].requests, full[1].requests);
    EXPECT_EQ(expect_ceiling_exact(plan, order[0] + " first"), 0u);
    const auto cost = measure_portfolio(plan);
    EXPECT_EQ(cost.best, 0u);
    EXPECT_EQ(cost.policies[1].found_fraction, 1.0);
  }
}

TEST(MinPathCeiling, PlanBudgetAtTheCeilingIsNotPruning) {
  // Unbounded, some later policies are pruned at the best count c. With
  // the plan's own max_requests at c they stop on that budget instead,
  // exactly as their full runs under the same plan do.
  auto plan = weak_plan(300, 0.5, 1, 12);
  ASSERT_GT(expect_ceiling_exact(plan, "unbounded"), 0u);
  const auto full = full_runs(plan, 0);
  plan.budget.max_requests = full[best_of(full)].requests;
  EXPECT_EQ(expect_ceiling_exact(plan, "max_requests = best"), 0u);
  std::size_t stopped = 0;
  for (const auto& r : full_runs(plan, 0)) stopped += r.budget_exhausted;
  EXPECT_GT(stopped, 0u);
}

TEST(MinPathCeiling, NoPruningWhenNoPolicyReachesTheTarget) {
  // Two components: the target is unreachable, so no policy sets a
  // ceiling and every one runs until it gives up or exhausts its budget.
  RunPlan plan;
  plan.factory = [](sfs::rng::Rng&) {
    sfs::graph::GraphBuilder b(8);
    for (VertexId v = 0; v < 5; ++v) b.add_edge(v, (v + 1) % 5);
    b.add_edge(5, 6);
    b.add_edge(6, 7);
    return b.build();
  };
  plan.endpoints = oldest_to_newest();
  plan.seed = 13;
  plan.budget.max_raw_requests = 200;
  for (const auto model : {KnowledgeModel::kWeak, KnowledgeModel::kStrong}) {
    plan.model = model;
    const auto full = full_runs(plan, 0);
    for (const auto& r : full) ASSERT_FALSE(r.found);
    EXPECT_EQ(expect_ceiling_exact(plan, "unreachable"), 0u);
  }
}

TEST(MinPathCeiling, TwoReplicationsRunEveryPolicyInFull) {
  for (const auto model : {KnowledgeModel::kWeak, KnowledgeModel::kStrong}) {
    auto plan = weak_plan(300, 0.5, 2, 14);
    plan.model = model;
    const auto cost = measure_portfolio(plan);
    const auto rep0 = full_runs(plan, 0);
    const auto rep1 = full_runs(plan, 1);
    ASSERT_EQ(cost.policies.size(), rep0.size());
    for (std::size_t i = 0; i < rep0.size(); ++i) {
      const auto& pol = cost.policies[i];
      EXPECT_FALSE(pol.pruned) << pol.name;
      expect_summary_of(pol.requests,
                        {static_cast<double>(rep0[i].requests),
                         static_cast<double>(rep1[i].requests)},
                        pol.name);
      expect_summary_of(pol.raw_requests,
                        {static_cast<double>(rep0[i].raw_requests),
                         static_cast<double>(rep1[i].raw_requests)},
                        pol.name);
      EXPECT_EQ(pol.found_fraction,
                (rep0[i].found + rep1[i].found) / 2.0)
          << pol.name;
    }
  }
}

// ------------------------------------------------- rooted-tree twin
//
// On a recursive tree searched from vertex 0, measure_portfolio derives
// max-id-greedy's result from dfs's run when dfs ran earlier
// (PolicySpec::rooted_tree_twin). Every entry must equal the one that
// real runs give: hand-rolled runs under the same ceiling.

// measure_portfolio(plan) at reps == 1 against hand-rolled runs under the
// ceiling: `best`, and every field of every entry, pruned or not.
sfs::sim::PortfolioCost expect_real_runs(const RunPlan& plan,
                                         const std::string& what) {
  const auto cost = measure_portfolio(plan);
  const auto runs = full_runs(plan, 0, true);
  EXPECT_EQ(cost.policies.size(), runs.size()) << what;
  if (cost.policies.size() != runs.size()) return cost;
  EXPECT_EQ(cost.best, best_of(runs)) << what;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    expect_cost_of(cost.policies[i], r, what + " " + cost.policies[i].name,
                   r.budget_exhausted &&
                       r.requests < plan.budget.max_requests &&
                       r.raw_requests < plan.budget.max_raw_requests);
  }
  return cost;
}

TEST(RootedTreeTwin, DerivedResultsEqualRealRuns) {
  std::size_t below = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const std::string at = " seed " + std::to_string(seed);
    auto plan = weak_plan(300, 0.5, 1, seed);
    plan.policies = {"dfs", "max-id-greedy"};
    const auto twins = full_runs(plan, 0);
    ASSERT_TRUE(twins[0].found);
    ASSERT_EQ(twins[1], twins[0]);
    const std::size_t c = twins[0].requests;
    ASSERT_GT(c, 1u);

    // A tie at dfs's count.
    EXPECT_EQ(expect_real_runs(plan, "tie" + at).best, 0u);

    // The plan's own caps below dfs's count: both stop on that budget.
    for (const bool raw : {false, true}) {
      auto capped = plan;
      (raw ? capped.budget.max_raw_requests : capped.budget.max_requests) =
          c - 1;
      const auto cost = expect_real_runs(
          capped, (raw ? "max_raw_requests" : "max_requests") + at);
      EXPECT_EQ(cost.policies[1].requests.mean, static_cast<double>(c - 1));
    }

    // bfs finding the target with fewer requests prunes the twin below
    // dfs's count, or, run before dfs, prunes dfs itself.
    plan.policies = {"dfs", "bfs", "max-id-greedy"};
    if (full_runs(plan, 0)[1].requests >= c) continue;
    ++below;
    auto cost = expect_real_runs(plan, "prune below" + at);
    EXPECT_FALSE(cost.policies[0].pruned);
    EXPECT_TRUE(cost.policies[2].pruned);
    plan.policies = {"bfs", "dfs", "max-id-greedy"};
    cost = expect_real_runs(plan, "dfs pruned" + at);
    EXPECT_TRUE(cost.policies[1].pruned);
    EXPECT_TRUE(cost.policies[2].pruned);
  }
  EXPECT_GT(below, 0u);
}

TEST(RootedTreeTwin, E1CellsEqualRealRuns) {
  // The e1 grid cell: the full weak portfolio on a merged Móri graph with
  // m = 1, a 40n raw budget and one replication. (At reps = 2 the twin is
  // derived too: MinPathCeiling.TwoReplicationsRunEveryPolicyInFull
  // searches Móri trees from vertex 0.)
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunPlan plan;
    plan.factory = [](sfs::rng::Rng& rng) {
      return sfs::gen::merged_mori_graph(400, 1, sfs::gen::MoriParams{0.5},
                                         rng);
    };
    plan.endpoints = oldest_to_newest();
    plan.seed = seed;
    plan.budget.max_raw_requests = 40 * 400;
    (void)expect_real_runs(plan, "e1 cell seed " + std::to_string(seed));
  }
}

TEST(RootedTreeTwin, OtherStartsAndOrdersRunBoth) {
  // From a random start the twins part, and max-id-greedy, run for real,
  // sometimes beats dfs; run first, it is no twin of a later dfs.
  std::size_t parted = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const std::string at = " seed " + std::to_string(seed);
    auto plan = weak_plan(300, 0.5, 1, seed);
    plan.endpoints = random_to_newest();
    plan.policies = {"dfs", "max-id-greedy"};
    const auto runs = full_runs(plan, 0);
    parted += runs[1].found && runs[1].requests < runs[0].requests;
    (void)expect_real_runs(plan, "random start" + at);

    plan = weak_plan(300, 0.5, 1, seed);
    plan.policies = {"max-id-greedy", "dfs"};
    (void)expect_real_runs(plan, "twin first" + at);
  }
  EXPECT_GT(parted, 0u);
}

}  // namespace

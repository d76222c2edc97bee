// Differential oracle for the search loop. A plain reference loop, written
// here, follows the runner's branch order (target check, budgets, one
// decision, one probe, failure/restart/abandon, weak observe), calls each
// policy only through its virtual start, next and observe, and mirrors
// every probe into the set-based OracleView (tests/oracle_view.hpp), whose
// counts and first-revealer map make the reference result. Every table
// policy runs this way and through run_search and its own run(),
// each on a fresh policy and the same stream, on every generator family,
// static and liveness-masked, uncapped and under charged and raw caps.
#include "search/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "generator_families.hpp"
#include "oracle_view.hpp"
#include "rng/random.hpp"
#include "search/policy.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::kNoVertex;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::search::KnowledgeModel;
using sfs::search::LivenessView;
using sfs::search::LocalView;
using sfs::search::PolicySpec;
using sfs::search::RetryBudget;
using sfs::search::RunBudget;
using sfs::search::SearchResult;
using sfs::search::SearchWorkspace;
using sfs::test::alive;
using sfs::test::OracleView;

struct Masks {
  std::vector<std::uint8_t> vertex_alive;  // empty = all alive
  std::vector<std::uint8_t> edge_alive;
  [[nodiscard]] LivenessView view() const {
    return LivenessView{vertex_alive, edge_alive};
  }
};

// What a search left behind: its result, the discovery order and the
// start -> target path.
struct Outcome {
  SearchResult result;
  std::vector<VertexId> order;
  std::vector<VertexId> path;
  std::uint64_t next_draw = 0;  // the stream's next value after the run
};

// The reference loop. The LocalView is kept in lock step only because the
// policies read it; every decision of the loop reads the oracle.
Outcome reference(const Graph& g, const PolicySpec& spec, VertexId start,
                  VertexId target, const Masks& masks, const RunBudget& budget,
                  const RetryBudget& retry, std::uint64_t seed,
                  SearchWorkspace& ws) {
  // The loop calls the model's own start/next/observe: downcast to the
  // interface the policy's model() names.
  const auto policy = spec.make();
  const bool weak = policy->model() == KnowledgeModel::kWeak;
  auto* const weak_policy =
      weak ? static_cast<sfs::search::WeakSearcher*>(policy.get()) : nullptr;
  auto* const strong_policy =
      weak ? nullptr : static_cast<sfs::search::StrongSearcher*>(policy.get());
  Rng rng(seed);
  LocalView view(g, spec.model, start, target, ws, masks.view());
  OracleView oracle(g, spec.model, start, target, masks.vertex_alive,
                    masks.edge_alive);
  const auto start_policy = [&] {
    if (weak) {
      weak_policy->start(view, rng);
    } else {
      strong_policy->start(view, rng);
    }
  };

  SearchResult r;
  std::size_t consecutive_failures = 0;
  start_policy();
  while (!oracle.target_found()) {
    if (oracle.requests() >= budget.max_requests ||
        oracle.raw_requests() >= budget.max_raw_requests) {
      r.budget_exhausted = true;
      break;
    }
    const std::size_t failures_before = oracle.failed_requests();
    VertexId answer = kNoVertex;
    sfs::search::WeakRequest request;
    if (weak) {
      const auto req = weak_policy->next(view, rng);
      if (!req) {
        r.gave_up = true;
        break;
      }
      request = *req;
      answer = view.request_edge(request);
      const VertexId want =
          oracle.request_edge(request.u, g.incident(request.u)[request.slot]);
      EXPECT_EQ(answer, want);
    } else {
      const auto u = strong_policy->next(view, rng);
      if (!u) {
        r.gave_up = true;
        break;
      }
      const auto got = view.request_vertex_span(*u);
      oracle.request_vertex(*u);
      const auto want = alive(masks.vertex_alive, *u)
                            ? oracle.neighbours(*u)
                            : std::vector<VertexId>{};
      EXPECT_TRUE(std::ranges::equal(got, want)) << "open " << *u;
    }
    if (oracle.failed_requests() != failures_before) {
      if (++consecutive_failures > retry.max_consecutive_failures) {
        if (r.restarts >= retry.max_restarts) {
          r.abandoned = true;
          break;
        }
        ++r.restarts;
        consecutive_failures = 0;
        start_policy();
      }
      continue;
    }
    consecutive_failures = 0;
    if (weak) weak_policy->observe(view, request, answer);
  }
  r.found = oracle.target_found();
  r.requests = oracle.requests();
  r.raw_requests = oracle.raw_requests();
  r.failed_requests = oracle.failed_requests();
  Outcome out;
  if (r.found) {
    out.path = oracle.path();
    r.path_length = out.path.size() - 1;
  }
  out.result = r;
  out.order = oracle.order();
  EXPECT_TRUE(std::ranges::equal(view.known_vertices(), out.order));
  out.next_draw = rng.u64();
  return out;
}

// The production loop through the policy's own run(), on a view the test
// holds so the order and path can be read off it.
Outcome production(const Graph& g, const PolicySpec& spec, VertexId start,
                   VertexId target, const Masks& masks,
                   const RunBudget& budget, const RetryBudget& retry,
                   std::uint64_t seed, SearchWorkspace& ws) {
  Rng rng(seed);
  LocalView view(g, spec.model, start, target, ws, masks.view());
  Outcome out;
  out.result = spec.make()->run(view, rng, budget, retry);
  const auto order = view.known_vertices();
  out.order.assign(order.begin(), order.end());
  out.path = view.discovery_path();
  out.next_draw = rng.u64();
  return out;
}

// The same run through run_search.
std::pair<SearchResult, std::uint64_t> through_runner(
    const Graph& g, const PolicySpec& spec, VertexId start, VertexId target,
    const Masks& masks, const RunBudget& budget, const RetryBudget& retry,
    std::uint64_t seed, SearchWorkspace& ws) {
  Rng rng(seed);
  const auto policy = spec.make();
  const SearchResult r = sfs::search::run_search(
      g, start, target, *policy, rng, budget, ws, masks.view(), retry);
  return {r, rng.u64()};
}

std::string describe(const SearchResult& r) {
  return "found " + std::to_string(r.found) + " requests " +
         std::to_string(r.requests) + " raw " +
         std::to_string(r.raw_requests) + " failed " +
         std::to_string(r.failed_requests) + " path " +
         std::to_string(r.path_length) + " budget " +
         std::to_string(r.budget_exhausted) + " gave_up " +
         std::to_string(r.gave_up) + " restarts " +
         std::to_string(r.restarts) + " abandoned " +
         std::to_string(r.abandoned);
}

// Whether `target` can be discovered from `start`: a path of live edges
// through live vertices.
bool reachable(const Graph& g, const Masks& masks, VertexId start,
               VertexId target) {
  std::vector<bool> seen(g.num_vertices(), false);
  std::deque<VertexId> queue{start};
  seen[start] = true;
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    if (u == target) return true;
    const auto inc = g.incident(u);
    const auto adj = g.adjacent(u);
    for (std::size_t i = 0; i < inc.size(); ++i) {
      const VertexId v = adj[i];
      if (seen[v] || !alive(masks.edge_alive, inc[i]) ||
          !alive(masks.vertex_alive, v)) {
        continue;
      }
      seen[v] = true;
      queue.push_back(v);
    }
  }
  return false;
}

// What the reference runs reached, so the test can insist on its reach.
struct Coverage {
  std::size_t found = 0;
  std::size_t found_at_cap = 0;  // found by the request that hit the cap
  std::size_t budget_stops = 0;
  std::size_t gave_up = 0;
  std::size_t failed = 0;
  std::size_t repeats = 0;  // raw requests neither charged nor failed
  std::size_t restarts = 0;
  std::size_t abandoned = 0;
  std::size_t uncapped = 0;
  std::size_t charged_caps = 0;
  std::size_t raw_caps = 0;
};

// One run three ways; returns the reference outcome.
Outcome check_run(const Graph& g, const PolicySpec& spec, VertexId start,
                  VertexId target, const Masks& masks, const RunBudget& budget,
                  const RetryBudget& retry, std::uint64_t seed,
                  SearchWorkspace& ws, Coverage& cov) {
  SCOPED_TRACE(spec.name + " cap " +
               (budget.max_requests == RunBudget{}.max_requests
                    ? std::string("none")
                    : std::to_string(budget.max_requests)) +
               " raw cap " +
               (budget.max_raw_requests == RunBudget{}.max_raw_requests
                    ? std::string("none")
                    : std::to_string(budget.max_raw_requests)));
  const Outcome ref = reference(g, spec, start, target, masks, budget, retry,
                                seed, ws);
  const Outcome prod = production(g, spec, start, target, masks, budget,
                                  retry, seed, ws);
  const auto [runner, runner_draw] = through_runner(
      g, spec, start, target, masks, budget, retry, seed, ws);
  EXPECT_EQ(prod.result, ref.result)
      << "run(): " << describe(prod.result) << "\nreference: "
      << describe(ref.result);
  EXPECT_EQ(runner, ref.result)
      << "runner: " << describe(runner) << "\nreference: "
      << describe(ref.result);
  EXPECT_EQ(prod.order, ref.order) << "known order";
  EXPECT_EQ(prod.path, ref.path) << "discovery path";
  EXPECT_EQ(prod.next_draw, ref.next_draw) << "draws made";
  EXPECT_EQ(runner_draw, ref.next_draw) << "draws made";

  const SearchResult& r = ref.result;
  cov.found += r.found;
  cov.found_at_cap += r.found && (r.requests == budget.max_requests ||
                                  r.raw_requests == budget.max_raw_requests);
  cov.budget_stops += r.budget_exhausted;
  cov.gave_up += r.gave_up;
  cov.failed += r.failed_requests;
  cov.repeats += r.raw_requests - r.requests - r.failed_requests;
  cov.restarts += r.restarts;
  cov.abandoned += r.abandoned;
  return ref;
}

// Random masks with the start and the target alive: about 15% of the
// other vertices and of the edges are dead.
Masks random_masks(const Graph& g, Rng& rng, VertexId start, VertexId target) {
  Masks m;
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    m.vertex_alive.push_back(rng.bernoulli(0.85) ? 1 : 0);
  }
  m.vertex_alive[start] = m.vertex_alive[target] = 1;
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    m.edge_alive.push_back(rng.bernoulli(0.85) ? 1 : 0);
  }
  return m;
}

// Every table policy on one graph, static or masked. Where the target can
// be reached every policy stops by itself, so it also runs uncapped, and
// then under charged and raw caps at and below the uncapped run's counts
// (a cap equal to the count is hit by the request that finds the target).
// Where it cannot, a walk would never stop, so every run has a raw cap.
void check_graph(const Graph& g, bool masked, std::uint64_t seed,
                 SearchWorkspace& ws, Coverage& cov) {
  const std::size_t n = g.num_vertices();
  Rng rng(seed);
  VertexId start = static_cast<VertexId>(rng.uniform_index(n));
  for (int tries = 0; tries < 64 && g.degree(start) == 0; ++tries) {
    start = static_cast<VertexId>(rng.uniform_index(n));
  }
  const auto target = static_cast<VertexId>(rng.uniform_index(n));
  const Masks masks = masked ? random_masks(g, rng, start, target) : Masks{};
  const bool can_reach = reachable(g, masks, start, target);
  // Masked runs rotate through retry budgets tight enough to restart and
  // abandon on graphs this small.
  const RetryBudget retries[] = {{}, {.max_consecutive_failures = 1,
                                      .max_restarts = 1},
                                 {.max_consecutive_failures = 0,
                                  .max_restarts = 3}};
  std::size_t k = seed;
  for (const auto& spec : sfs::search::all_policies()) {
    const RetryBudget retry = masked ? retries[k++ % 3] : RetryBudget{};
    const std::uint64_t stream = rng.u64();
    const RunBudget first =
        can_reach ? RunBudget{}
                  : RunBudget{.max_raw_requests = 4 * (n + g.num_edges())};
    const Outcome base = check_run(g, spec, start, target, masks, first,
                                   retry, stream, ws, cov);
    ++(can_reach ? cov.uncapped : cov.raw_caps);
    if (::testing::Test::HasFailure()) return;
    const std::size_t charged = base.result.requests;
    const std::size_t raw = base.result.raw_requests;
    const std::size_t raw_limit =
        can_reach ? RunBudget{}.max_raw_requests : raw;
    for (const std::size_t cap : {charged, charged / 2}) {
      check_run(g, spec, start, target, masks,
                RunBudget{.max_requests = cap, .max_raw_requests = raw_limit},
                retry, stream, ws, cov);
      ++cov.charged_caps;
    }
    for (const std::size_t cap : {raw, raw / 2}) {
      check_run(g, spec, start, target, masks,
                RunBudget{.max_raw_requests = cap}, retry, stream, ws, cov);
      ++cov.raw_caps;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SearchLoopOracle, EveryPolicyMatchesTheReferenceLoop) {
  SearchWorkspace ws;
  Coverage cov;
  for (const std::size_t n : {60u, 150u}) {
    for (const auto& family : sfs::test::generator_families(n)) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        Rng rng(1000 * n + seed);
        const Graph g = family.make(rng);
        for (const bool masked : {false, true}) {
          SCOPED_TRACE(family.name + " n " + std::to_string(n) + " seed " +
                       std::to_string(seed) +
                       (masked ? " masked" : " static"));
          check_graph(g, masked, 10 * seed + masked, ws, cov);
          if (HasFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(cov.found, 0u);
  EXPECT_GT(cov.found_at_cap, 0u);
  EXPECT_GT(cov.budget_stops, 0u);
  EXPECT_GT(cov.gave_up, 0u);
  EXPECT_GT(cov.failed, 0u);
  EXPECT_GT(cov.repeats, 0u);
  EXPECT_GT(cov.restarts, 0u);
  EXPECT_GT(cov.abandoned, 0u);
  EXPECT_GT(cov.uncapped, 0u);
  EXPECT_GT(cov.charged_caps, 0u);
  EXPECT_GT(cov.raw_caps, 0u);
}

}  // namespace

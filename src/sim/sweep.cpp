#include "sim/sweep.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "base/check.hpp"
#include "base/parallel.hpp"
#include "graph/algorithms.hpp"
#include "rng/random.hpp"
#include "rng/stream_audit.hpp"
#include "search/local_view.hpp"
#include "search/policy.hpp"

namespace sfs::sim {

using graph::VertexId;

const PolicyCost& PortfolioCost::best_policy() const {
  SFS_REQUIRE(!policies.empty(),
              "best_policy() on an empty portfolio — this PortfolioCost "
              "holds no policies (a default-constructed result, or a "
              "measurement that never ran)");
  SFS_CHECK(best < policies.size(), "best index out of range");
  return policies[best];
}

namespace {

// PortfolioCost::best's ordering, shared by the fold over replications and
// the per-replication ceiling, so both apply one rule. A candidate beats
// the lead when it is in a better success class (found the target in every
// replication), or in the same class with a strictly lower mean of charged
// requests. Candidates are offered in portfolio order and an equal one does
// not replace the lead, so a tie keeps the lowest index.
struct Lead {
  bool full = false;
  double mean = std::numeric_limits<double>::infinity();

  // Returns true, and takes the candidate's place, when it beats the lead.
  bool offer(bool cand_full, double cand_mean) {
    if (!((cand_full && !full) || (cand_full == full && cand_mean < mean))) {
      return false;
    }
    full = cand_full;
    mean = cand_mean;
    return true;
  }
};

// Per-worker reusable state, bound to one worker thread at a time. Like
// SearchWorkspace it is not movable, so the harness sizes its vector once
// with the count constructor and never resizes it.
struct WorkerState {
  /// One portfolio instance (policies fully reset in start()), made on
  /// the worker's first replication.
  std::vector<std::unique_ptr<search::Searcher>> policies;
  /// Per-search state for the runner's workspace-reusing overload.
  search::SearchWorkspace workspace;
  /// Generator scratch for scratch-aware factories.
  gen::GenScratch scratch;
  /// Graph slot recycled across replications: the factory regenerates it
  /// in place, so the measurement loop gets a stable reference.
  graph::Graph graph;
};

using PolicySpecs = std::span<const search::PolicySpec* const>;

constexpr std::size_t kNoTwin = static_cast<std::size_t>(-1);

// Per selected policy, the index of the earlier selected policy named as
// its PolicySpec::rooted_tree_twin, or kNoTwin.
std::vector<std::size_t> rooted_tree_twins(PolicySpecs specs) {
  std::vector<std::size_t> twins(specs.size(), kNoTwin);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (specs[j]->name == specs[i]->rooted_tree_twin) twins[i] = j;
    }
  }
  return twins;
}

// The measurement loop, over a scratch-shape factory (measure_portfolio
// adapts a plain one).
PortfolioCost measure_specs(PolicySpecs specs,
                            const ScratchGraphFactory& make_graph,
                            const EndpointSelector& endpoints,
                            std::size_t reps, std::uint64_t seed,
                            const search::RunBudget& budget,
                            std::size_t threads) {
  SFS_REQUIRE(reps >= 1, "need at least one replication");
  const std::size_t num_policies = specs.size();
  const std::vector<std::size_t> twins = rooted_tree_twins(specs);
  const bool any_twin =
      std::any_of(twins.begin(), twins.end(),
                  [](std::size_t j) { return j != kNoTwin; });

  // Replication results land in slots indexed by (rep, policy); the fold
  // below walks them in replication order, so the summaries are
  // bit-identical to a sequential loop for any worker count.
  std::vector<std::vector<search::SearchResult>> results(reps);

  std::vector<WorkerState> workers(base::resolve_worker_count(threads));

  base::parallel_for(reps, threads, [&](std::size_t rep, std::size_t worker) {
    WorkerState& st = workers[worker];
    if (st.policies.empty()) st.policies = search::make_searchers(specs);
    // One graph per replication, shared by all policies (paired design).
    // Stream tags: 0 = graph — untempered, because stream 0 must keep the
    // historical per-rep seeds (see rng/random.cpp); the endpoint
    // tag 0xabcdef and per-policy tags 0x5ea7c4+i are tempered through
    // mix64 like sim/scaling's size tags, because raw XOR tags alias
    // across experiments whose seeds differ by a small XOR delta — the
    // stream audit caught exactly that in-tree: seeds 17 and 29 (delta
    // 0x0c) shared policy streams 0x5ea7c4+4 and 0x5ea7c4+0.
    // Derivations use the derive_stream_seed mix chain, which every
    // committed sweep artifact (the e1/e2 pinned-seed goldens, checkpoint
    // meta rows, test_sweep_compat) was produced under, through the
    // audited wrapper, so a sweep run under SFS_RNG_AUDIT=1 fails fast on
    // stream collisions (rng/stream_audit).
    rng::Rng graph_rng(rng::audited_stream_seed(seed, 0, rep));
    make_graph(graph_rng, st.scratch, st.graph);
    const graph::Graph& g = st.graph;
    rng::Rng endpoint_rng(
        rng::audited_stream_seed(seed, rng::mix64(0xabcdef), rep));
    const auto [start, target] = endpoints(g, endpoint_rng);

    // Min-path ceiling. With one replication a policy's mean is its single
    // run's count, so once some policy has found the target with c charged
    // requests, a later policy wins only by finding it with fewer: it is
    // capped at c. A capped run makes the same calls and RNG draws as the
    // full run up to the cap, and one that reaches c can at best tie, which
    // keeps the earlier policy, so `best` and its PolicyCost are exactly
    // those of uncapped runs. With reps >= 2 no single run bounds a mean,
    // so no policy is capped.
    //
    // Twins (PolicySpec::rooted_tree_twin). On a recursive tree searched
    // from vertex 0 a twin repeats the run of a policy that ran before it,
    // whose cap was at least its own (the ceiling only falls), so its
    // result is that run truncated at its own cap, and it does not run.
    // Its stream seed is still derived, so the audit records every stream.
    const bool rooted_tree =
        any_twin && start == 0 && graph::is_recursive_tree(g);
    Lead lead;
    auto& row = results[rep];
    row.resize(num_policies);
    for (std::size_t i = 0; i < num_policies; ++i) {
      const std::uint64_t search_seed =
          rng::audited_stream_seed(seed, rng::mix64(0x5ea7c4 + i), rep);
      search::RunBudget capped = budget;
      if (reps == 1 && lead.full) {
        capped.max_requests = std::min(capped.max_requests,
                                       static_cast<std::size_t>(lead.mean));
      }
      if (rooted_tree && twins[i] != kNoTwin) {
        row[i] = search::truncate_run(row[twins[i]], capped);
      } else {
        rng::Rng search_rng(search_seed);
        row[i] = search::run_search(g, start, target, *st.policies[i],
                                    search_rng, capped, st.workspace);
      }
      lead.offer(row[i].found, static_cast<double>(row[i].requests));
    }
  });

  // Sequential fold in replication order.
  PortfolioCost out;
  out.policies.resize(num_policies);
  std::vector<stats::Accumulator> req_acc(num_policies);
  std::vector<stats::Accumulator> raw_acc(num_policies);
  std::vector<std::size_t> found(num_policies, 0);
  std::vector<std::size_t> failed_sum(num_policies, 0);
  std::vector<std::size_t> restart_sum(num_policies, 0);
  std::vector<std::size_t> abandoned(num_policies, 0);
  std::vector<std::vector<double>> req_values(num_policies);
  for (auto& v : req_values) v.reserve(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < num_policies; ++i) {
      const search::SearchResult& r = results[rep][i];
      // A budget stop below both of the plan's own caps is the ceiling's.
      if (r.budget_exhausted && r.requests < budget.max_requests &&
          r.raw_requests < budget.max_raw_requests) {
        out.policies[i].pruned = true;
      }
      req_acc[i].add(static_cast<double>(r.requests));
      raw_acc[i].add(static_cast<double>(r.raw_requests));
      req_values[i].push_back(static_cast<double>(r.requests));
      if (r.found) ++found[i];
      failed_sum[i] += r.failed_requests;
      restart_sum[i] += r.restarts;
      if (r.abandoned) ++abandoned[i];
    }
  }

  for (std::size_t i = 0; i < num_policies; ++i) {
    out.policies[i].name = specs[i]->name;
    out.policies[i].requests = req_acc[i].summary();
    out.policies[i].raw_requests = raw_acc[i].summary();
    // Sort once per policy; median and p90 read from the same sorted
    // sample (stats::median / stats::quantile would each sort a copy).
    std::sort(req_values[i].begin(), req_values[i].end());
    out.policies[i].median_requests = stats::quantile_sorted(req_values[i], 0.5);
    out.policies[i].p90_requests = stats::quantile_sorted(req_values[i], 0.9);
    out.policies[i].found_fraction =
        static_cast<double>(found[i]) / static_cast<double>(reps);
    out.policies[i].mean_failed_requests =
        static_cast<double>(failed_sum[i]) / static_cast<double>(reps);
    out.policies[i].mean_restarts =
        static_cast<double>(restart_sum[i]) / static_cast<double>(reps);
    out.policies[i].abandoned_fraction =
        static_cast<double>(abandoned[i]) / static_cast<double>(reps);
  }

  // Best: PortfolioCost::best's ordering, through the same Lead as the
  // ceiling above.
  Lead lead;
  for (std::size_t i = 0; i < out.policies.size(); ++i) {
    if (lead.offer(out.policies[i].found_fraction >= 1.0,
                   out.policies[i].requests.mean)) {
      out.best = i;
    }
  }
  return out;
}

}  // namespace

PortfolioCost measure_portfolio(const RunPlan& plan) {
  SFS_REQUIRE(static_cast<bool>(plan.endpoints),
              "RunPlan: an endpoint selector is required");
  const bool plain = static_cast<bool>(plan.factory);
  const bool scratch = static_cast<bool>(plan.scratch_factory);
  SFS_REQUIRE(plain != scratch,
              "RunPlan: set exactly one of factory / scratch_factory");
  // Throws std::invalid_argument on unknown names, wrong-model policies
  // or duplicates.
  const auto specs = search::resolve_policies(plan.model, plan.policies);
  // A plain factory takes the scratch shape: its graph lands in the
  // worker's slot.
  ScratchGraphFactory adapted;
  if (plain) {
    adapted = [&factory = plan.factory](rng::Rng& rng, gen::GenScratch&,
                                        graph::Graph& out) {
      out = factory(rng);
    };
  }
  return measure_specs(specs, plain ? adapted : plan.scratch_factory,
                       plan.endpoints, plan.reps, plan.seed, plan.budget,
                       plan.threads);
}

EndpointSelector oldest_to_newest() {
  return [](const graph::Graph& g, rng::Rng&) {
    SFS_REQUIRE(g.num_vertices() >= 2, "graph too small");
    return std::pair<VertexId, VertexId>{
        0, static_cast<VertexId>(g.num_vertices() - 1)};
  };
}

EndpointSelector random_to_newest() {
  return [](const graph::Graph& g, rng::Rng& rng) {
    SFS_REQUIRE(g.num_vertices() >= 2, "graph too small");
    const auto target = static_cast<VertexId>(g.num_vertices() - 1);
    VertexId start;
    do {
      start = static_cast<VertexId>(rng.uniform_index(g.num_vertices()));
    } while (start == target);
    return std::pair<VertexId, VertexId>{start, target};
  };
}

EndpointSelector newest_to_paper_id(std::size_t paper_id) {
  return [paper_id](const graph::Graph& g, rng::Rng&) {
    SFS_REQUIRE(paper_id >= 1 && paper_id <= g.num_vertices(),
                "paper id out of range");
    return std::pair<VertexId, VertexId>{
        static_cast<VertexId>(g.num_vertices() - 1),
        static_cast<VertexId>(paper_id - 1)};
  };
}

}  // namespace sfs::sim

#include "search/policy.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "search/simulate.hpp"
#include "search/strong_algorithms.hpp"
#include "search/weak_algorithms.hpp"

namespace sfs::search {

std::string_view model_name(KnowledgeModel model) noexcept {
  return model == KnowledgeModel::kWeak ? "weak" : "strong";
}

namespace {

// The factory of a policy class with a default constructor.
template <typename Policy>
std::unique_ptr<Searcher> construct() {
  return std::make_unique<Policy>();
}

// A model-typed factory (e.g. make_degree_greedy_weak) as the table's.
template <auto typed_factory>
std::unique_ptr<Searcher> widen() {
  return typed_factory();
}

}  // namespace

// Table order within each model IS the model's full-portfolio order and
// is frozen (the portfolio engine tags each policy's RNG stream by its
// portfolio index). Append new policies at the end of their model's block.
std::span<const PolicySpec> all_policies() {
  static const PolicySpec table[] = {
      // Weak model.
      {"bfs", "exhaustive breadth-first frontier expansion",
       KnowledgeModel::kWeak, construct<BfsWeak>},
      {"dfs", "depth-first frontier expansion", KnowledgeModel::kWeak,
       construct<DfsWeak>},
      {"degree-greedy",
       "expand an unexplored edge of the highest-degree discovered vertex "
       "(Adamic et al.)",
       KnowledgeModel::kWeak, widen<make_degree_greedy_weak>},
      {"min-id-greedy",
       "expand the oldest (smallest-id) discovered vertex first",
       KnowledgeModel::kWeak, widen<make_min_id_greedy_weak>},
      // Twin of dfs: on a recursive tree searched from its root, the known
      // vertices with unexplored edges form a path whose ids increase
      // away from the root, so the largest is dfs's stack top.
      // frontier-walk makes the same charged requests but is no twin: it
      // reaches that vertex by raw-only drift probes, drawn from its own
      // stream, which its raw count and the raw budget read.
      {"max-id-greedy",
       "expand the youngest (largest-id) discovered vertex first",
       KnowledgeModel::kWeak, widen<make_max_id_greedy_weak>, "dfs"},
      {"random-frontier",
       "expand a uniformly random discovered vertex with unexplored edges",
       KnowledgeModel::kWeak, construct<RandomFrontierWeak>},
      {"frontier-walk",
       "walk that explores an unexplored incident edge when one exists, "
       "else moves along a random explored edge",
       KnowledgeModel::kWeak, construct<FrontierWalkWeak>},
      {"no-backtrack-walk",
       "random walk avoiding the arrival edge when possible",
       KnowledgeModel::kWeak, construct<NoBacktrackWalkWeak>},
      {"random-walk", "uniform random walk over incident edges",
       KnowledgeModel::kWeak, construct<RandomWalkWeak>},
      {"weak-sim(degree-greedy-strong)",
       "weak-model simulation of the strong degree-greedy policy "
       "(equivalence theorem construction)",
       KnowledgeModel::kWeak, widen<make_simulated_degree_greedy>},

      // Strong model.
      {"degree-greedy-strong",
       "request the highest-known-degree vertex first (Adamic et al. "
       "high-degree search)",
       KnowledgeModel::kStrong, widen<make_degree_greedy_strong>},
      {"bfs-strong", "request vertices in discovery order (ball growing)",
       KnowledgeModel::kStrong, construct<BfsStrong>},
      {"random-strong", "request a uniformly random known unrequested vertex",
       KnowledgeModel::kStrong, construct<RandomStrong>},
      {"min-id-strong", "request the oldest known vertex first",
       KnowledgeModel::kStrong, widen<make_min_id_strong>},
      {"max-id-strong", "request the youngest known vertex first",
       KnowledgeModel::kStrong, widen<make_max_id_strong>},
  };
  return table;
}

const PolicySpec* find_policy(std::string_view name) {
  for (const auto& spec : all_policies()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string policy_selection_error(std::span<const std::string> names,
                                   std::optional<KnowledgeModel> model) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    const PolicySpec* spec = find_policy(name);
    if (spec == nullptr) {
      return "unknown policy '" + name +
             "' (sfsearch_cli policies lists them)";
    }
    if (model && spec->model != *model) {
      return "policy '" + name + "' is a " +
             std::string(model_name(spec->model)) +
             "-model policy, but the run requests the " +
             std::string(model_name(*model)) + " model";
    }
    if (std::find(names.begin(), names.begin() + i, name) !=
        names.begin() + i) {
      return "policy '" + name + "' selected more than once";
    }
  }
  return {};
}

std::vector<const PolicySpec*> resolve_policies(
    KnowledgeModel model, std::span<const std::string> names) {
  std::vector<const PolicySpec*> out;
  if (names.empty()) {
    for (const auto& spec : all_policies()) {
      if (spec.model == model) out.push_back(&spec);
    }
    return out;
  }
  const std::string error = policy_selection_error(names, model);
  SFS_REQUIRE(error.empty(), error);
  out.reserve(names.size());
  for (const auto& name : names) out.push_back(find_policy(name));
  return out;
}

std::vector<std::unique_ptr<Searcher>> make_searchers(
    std::span<const PolicySpec* const> specs) {
  std::vector<std::unique_ptr<Searcher>> out;
  out.reserve(specs.size());
  for (const auto* spec : specs) out.push_back(spec->make());
  return out;
}

}  // namespace sfs::search

#include "search/policy.hpp"

#include <utility>

#include "base/check.hpp"
#include "search/simulate.hpp"
#include "search/strong_algorithms.hpp"
#include "search/weak_algorithms.hpp"

namespace sfs::search {

std::string_view model_name(KnowledgeModel model) noexcept {
  return model == KnowledgeModel::kWeak ? "weak" : "strong";
}

void PolicyRegistry::add(PolicySpec spec) {
  SFS_REQUIRE(!spec.name.empty(), "policy registration: empty name");
  const bool weak = spec.model == KnowledgeModel::kWeak;
  SFS_REQUIRE(!weak || (spec.make_weak && !spec.make_strong),
              "policy registration: '" + spec.name +
                  "' is tagged weak, so exactly make_weak must be set");
  SFS_REQUIRE(weak || (spec.make_strong && !spec.make_weak),
              "policy registration: '" + spec.name +
                  "' is tagged strong, so exactly make_strong must be set");
  for (const auto& existing : specs_) {
    SFS_REQUIRE(existing.name != spec.name,
                "policy registration: duplicate name '" + spec.name + "'");
  }
  specs_.push_back(std::move(spec));
}

const PolicySpec* PolicyRegistry::find(std::string_view name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<const PolicySpec*> PolicyRegistry::all() const {
  std::vector<const PolicySpec*> out;
  out.reserve(specs_.size());
  for (const auto& spec : specs_) out.push_back(&spec);
  return out;
}

std::vector<const PolicySpec*> PolicyRegistry::all(
    KnowledgeModel model) const {
  std::vector<const PolicySpec*> out;
  for (const auto& spec : specs_) {
    if (spec.model == model) out.push_back(&spec);
  }
  return out;
}

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry registry;
  return registry;
}

PolicyRegistrar::PolicyRegistrar(PolicySpec spec) {
  PolicyRegistry::instance().add(std::move(spec));
}

std::vector<const PolicySpec*> resolve_policies(
    KnowledgeModel model, std::span<const std::string> names) {
  const auto& registry = PolicyRegistry::instance();
  if (names.empty()) {
    auto out = registry.all(model);
    SFS_REQUIRE(!out.empty(), std::string("no registered policies for the ") +
                                  std::string(model_name(model)) + " model");
    return out;
  }
  std::vector<const PolicySpec*> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    const PolicySpec* spec = registry.find(name);
    SFS_REQUIRE(spec != nullptr,
                "unknown policy '" + name +
                    "' (see sfsearch_cli policies for the registry)");
    SFS_REQUIRE(spec->model == model,
                "policy '" + name + "' is a " +
                    std::string(model_name(spec->model)) +
                    "-model policy, but the run requests the " +
                    std::string(model_name(model)) + " model");
    for (const auto* seen : out) {
      SFS_REQUIRE(seen != spec,
                  "policy '" + name + "' selected more than once");
    }
    out.push_back(spec);
  }
  return out;
}

std::vector<std::unique_ptr<WeakSearcher>> make_weak_searchers(
    std::span<const PolicySpec* const> specs) {
  std::vector<std::unique_ptr<WeakSearcher>> out;
  out.reserve(specs.size());
  for (const auto* spec : specs) {
    SFS_REQUIRE(spec->model == KnowledgeModel::kWeak && spec->make_weak,
                "policy '" + spec->name + "' is not a weak-model policy");
    out.push_back(spec->make_weak());
  }
  return out;
}

std::vector<std::unique_ptr<StrongSearcher>> make_strong_searchers(
    std::span<const PolicySpec* const> specs) {
  std::vector<std::unique_ptr<StrongSearcher>> out;
  out.reserve(specs.size());
  for (const auto* spec : specs) {
    SFS_REQUIRE(spec->model == KnowledgeModel::kStrong && spec->make_strong,
                "policy '" + spec->name + "' is not a strong-model policy");
    out.push_back(spec->make_strong());
  }
  return out;
}

// --------------------------------------------------------------- built-ins
//
// Registration order within each model IS the model's full-portfolio order
// and is frozen (the portfolio engine tags each policy's RNG stream by its
// portfolio index). Append new policies at the end of their model's block.

namespace {

PolicySpec weak_spec(std::string name, std::string description,
                     std::function<std::unique_ptr<WeakSearcher>()> make) {
  PolicySpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.model = KnowledgeModel::kWeak;
  spec.make_weak = std::move(make);
  return spec;
}

PolicySpec strong_spec(std::string name, std::string description,
                       std::function<std::unique_ptr<StrongSearcher>()> make) {
  PolicySpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.model = KnowledgeModel::kStrong;
  spec.make_strong = std::move(make);
  return spec;
}

const PolicyRegistrar reg_builtins[] = {
    // Weak model.
    PolicyRegistrar(weak_spec(
        "bfs", "exhaustive breadth-first frontier expansion",
        [] { return std::make_unique<BfsWeak>(); })),
    PolicyRegistrar(weak_spec(
        "dfs", "depth-first frontier expansion",
        [] { return std::make_unique<DfsWeak>(); })),
    PolicyRegistrar(weak_spec(
        "degree-greedy",
        "expand an unexplored edge of the highest-degree discovered vertex "
        "(Adamic et al.)",
        make_degree_greedy_weak)),
    PolicyRegistrar(weak_spec(
        "min-id-greedy",
        "expand the oldest (smallest-id) discovered vertex first",
        make_min_id_greedy_weak)),
    PolicyRegistrar(weak_spec(
        "max-id-greedy",
        "expand the youngest (largest-id) discovered vertex first",
        make_max_id_greedy_weak)),
    PolicyRegistrar(weak_spec(
        "random-frontier",
        "expand a uniformly random discovered vertex with unexplored edges",
        [] { return std::make_unique<RandomFrontierWeak>(); })),
    PolicyRegistrar(weak_spec(
        "frontier-walk",
        "walk that explores an unexplored incident edge when one exists, "
        "else moves along a random explored edge",
        [] { return std::make_unique<FrontierWalkWeak>(); })),
    PolicyRegistrar(weak_spec(
        "no-backtrack-walk",
        "random walk avoiding the arrival edge when possible",
        [] { return std::make_unique<NoBacktrackWalkWeak>(); })),
    PolicyRegistrar(weak_spec(
        "random-walk", "uniform random walk over incident edges",
        [] { return std::make_unique<RandomWalkWeak>(); })),
    PolicyRegistrar(weak_spec(
        "weak-sim(degree-greedy-strong)",
        "weak-model simulation of the strong degree-greedy policy "
        "(equivalence theorem construction)",
        make_simulated_degree_greedy)),

    // Strong model.
    PolicyRegistrar(strong_spec(
        "degree-greedy-strong",
        "request the highest-known-degree vertex first (Adamic et al. "
        "high-degree search)",
        make_degree_greedy_strong)),
    PolicyRegistrar(strong_spec(
        "bfs-strong", "request vertices in discovery order (ball growing)",
        [] { return std::make_unique<BfsStrong>(); })),
    PolicyRegistrar(strong_spec(
        "random-strong", "request a uniformly random known unrequested vertex",
        [] { return std::make_unique<RandomStrong>(); })),
    PolicyRegistrar(strong_spec(
        "min-id-strong", "request the oldest known vertex first",
        make_min_id_strong)),
    PolicyRegistrar(strong_spec(
        "max-id-strong", "request the youngest known vertex first",
        make_max_id_strong)),
};

}  // namespace

}  // namespace sfs::search

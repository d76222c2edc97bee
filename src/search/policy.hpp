// Search-policy registry: the policy surface of the search API.
//
// The paper's statements quantify over "any search algorithm" in the weak
// and strong knowledge models. The registry makes that quantifier a list
// consumers can select from, mirroring the experiment registry
// (sim/experiment.hpp): each policy registers a PolicySpec — name,
// one-line description, knowledge model, and a stateful std::function
// factory — via a static PolicyRegistrar, and every consumer (the
// portfolio engine in sim/sweep, the QueryEngine, sfsearch_cli,
// sfs_bench --policies) selects policies by name. A model's full
// portfolio is make_*_searchers(resolve_policies(model, {})).
//
// Registration order is load-bearing: the full-portfolio order per model is
// the registration order, and the portfolio measurement engine derives
// each policy's RNG stream from its index in the selected portfolio, so
// reordering registrations would silently change every pinned-seed
// experiment output. Append new policies at the end of their model's block
// in policy.cpp.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "search/searcher.hpp"

namespace sfs::search {

/// "weak" / "strong" — the registry's and CLI's spelling of the model tag.
[[nodiscard]] std::string_view model_name(KnowledgeModel model) noexcept;

/// A registered search policy. Exactly one of the two factories is set,
/// matching `model`; the factories are stateful std::functions (they may
/// capture parameters — see the priority-greedy registrations).
struct PolicySpec {
  /// Unique id across BOTH models (the weak and strong built-ins already
  /// use distinct name() strings, e.g. "bfs" vs "bfs-strong"). Used by
  /// --policies lists, sfsearch_cli and the registry printout.
  std::string name;
  /// One-line description for `sfsearch_cli policies` / docs.
  std::string description;
  KnowledgeModel model = KnowledgeModel::kWeak;
  /// Set iff model == kWeak. Must return a fresh searcher whose name()
  /// equals `name`.
  std::function<std::unique_ptr<WeakSearcher>()> make_weak;
  /// Set iff model == kStrong. Same naming contract.
  std::function<std::unique_ptr<StrongSearcher>()> make_strong;
};

/// The policy registry. The process-wide instance() holds the built-ins
/// (registered in policy.cpp) plus any user registrations; tests construct
/// their own instances to exercise the registration rules in isolation.
class PolicyRegistry {
 public:
  /// Registers a spec. Throws std::invalid_argument on an empty name, a
  /// duplicate name, or a factory/model mismatch (missing factory for the
  /// declared model, or a factory for the other model also set).
  void add(PolicySpec spec);

  /// Looks up a spec by name; nullptr when absent.
  [[nodiscard]] const PolicySpec* find(std::string_view name) const;

  /// All specs in registration order.
  [[nodiscard]] std::vector<const PolicySpec*> all() const;

  /// The specs of one model in registration order — the model's full
  /// portfolio.
  [[nodiscard]] std::vector<const PolicySpec*> all(KnowledgeModel model) const;

  [[nodiscard]] std::size_t size() const noexcept { return specs_.size(); }

  static PolicyRegistry& instance();

 private:
  /// Deque, not vector: find()/all()/resolve_policies() hand out
  /// PolicySpec pointers that long-lived consumers (QueryEngine) keep, so
  /// a later registration must not relocate existing specs.
  std::deque<PolicySpec> specs_;
};

/// Registers a spec with PolicyRegistry::instance() at static
/// initialization.
struct PolicyRegistrar {
  explicit PolicyRegistrar(PolicySpec spec);
};

/// Resolves a policy-name filter against the process-wide registry:
/// an empty `names` list selects the full portfolio of `model` in
/// registration order; otherwise the named policies in the given order.
/// Throws std::invalid_argument on an unknown name, a policy of the wrong
/// model, a duplicate selection, or when the registry holds no policy of
/// `model` at all — an empty portfolio is never returned silently.
[[nodiscard]] std::vector<const PolicySpec*> resolve_policies(
    KnowledgeModel model, std::span<const std::string> names);

/// Instantiates fresh searchers from resolved specs (all of the matching
/// model; violating specs throw std::invalid_argument).
[[nodiscard]] std::vector<std::unique_ptr<WeakSearcher>> make_weak_searchers(
    std::span<const PolicySpec* const> specs);
[[nodiscard]] std::vector<std::unique_ptr<StrongSearcher>>
make_strong_searchers(std::span<const PolicySpec* const> specs);

}  // namespace sfs::search

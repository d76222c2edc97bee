// The search-policy table: the policy surface of the search API.
//
// The paper's statements quantify over "any search algorithm" in the weak
// and strong knowledge models. The table makes that quantifier a fixed
// list consumers can select from: each policy is a PolicySpec — name,
// one-line description, knowledge model, and a factory — in
// search/policy.cpp, and every consumer (the portfolio engine in
// sim/sweep, the QueryEngine, sfsearch_cli, sfs_bench --policies) selects
// policies by name. A model's full portfolio is
// make_*_searchers(resolve_policies(model, {})).
//
// Table order is load-bearing: the full-portfolio order per model is the
// table order, and the portfolio measurement engine derives each policy's
// RNG stream from its index in the selected portfolio, so reordering the
// table would silently change every pinned-seed experiment output. Append
// new policies at the end of their model's block in policy.cpp.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "search/searcher.hpp"

namespace sfs::search {

/// "weak" / "strong" — the table's and CLI's spelling of the model tag.
[[nodiscard]] std::string_view model_name(KnowledgeModel model) noexcept;

/// A built-in search policy. Exactly one of the two factories is set,
/// matching `model`.
struct PolicySpec {
  /// Unique id across BOTH models (the weak and strong built-ins use
  /// distinct name() strings, e.g. "bfs" vs "bfs-strong"). Used by
  /// --policies lists, sfsearch_cli and the policy printout.
  std::string name;
  /// One-line description for `sfsearch_cli policies` / docs.
  std::string description;
  KnowledgeModel model = KnowledgeModel::kWeak;
  /// Set iff model == kWeak. Returns a fresh searcher whose name() equals
  /// `name`.
  std::unique_ptr<WeakSearcher> (*make_weak)() = nullptr;
  /// Set iff model == kStrong. Same naming contract.
  std::unique_ptr<StrongSearcher> (*make_strong)() = nullptr;
};

/// Every policy, weak ones first; within a model, in portfolio order.
[[nodiscard]] std::span<const PolicySpec> all_policies();

/// The policy named `name`, or nullptr when there is none.
[[nodiscard]] const PolicySpec* find_policy(std::string_view name);

/// Checks a policy-name selection against the table without throwing:
/// the first name that is not in the table, belongs to another model than
/// `model` (when given) or repeats an earlier name, as a one-line message
/// naming that policy; empty when the selection is valid. Command lines
/// call it to reject a bad --policies list before doing any work.
[[nodiscard]] std::string policy_selection_error(
    std::span<const std::string> names,
    std::optional<KnowledgeModel> model = std::nullopt);

/// Resolves a policy-name filter against the table: an empty `names` list
/// selects the full portfolio of `model` in table order; otherwise the
/// named policies in the given order. Throws std::invalid_argument with
/// policy_selection_error's message on an unknown name, a policy of the
/// wrong model, or a duplicate selection.
[[nodiscard]] std::vector<const PolicySpec*> resolve_policies(
    KnowledgeModel model, std::span<const std::string> names);

/// Instantiates fresh searchers from resolved specs (all of the matching
/// model; a spec of the other model throws std::invalid_argument).
[[nodiscard]] std::vector<std::unique_ptr<WeakSearcher>> make_weak_searchers(
    std::span<const PolicySpec* const> specs);
[[nodiscard]] std::vector<std::unique_ptr<StrongSearcher>>
make_strong_searchers(std::span<const PolicySpec* const> specs);

}  // namespace sfs::search

// Search-algorithm interfaces.
//
// A searcher is a (possibly randomized) policy that, given the current
// LocalView, proposes the next request. The runner's loop (drive, in
// search/runner.hpp) applies the request, informs a weak searcher of the
// answer, and repeats until the target is found, the searcher gives up, or
// a budget is hit. A strong searcher needs no answer callback: a strong
// request reveals whole neighbor lists, and the view's known_vertices()
// already lists every vertex they disclosed, in discovery order.
//
// Searcher is what every caller above the loop holds: it names the
// knowledge model the policy searches in, so a caller reads the model off
// the searcher (run_search builds the view in searcher.model()) instead of
// branching on its C++ type. WeakSearcher and StrongSearcher fix model()
// and declare the model's own start/next (and, weak only, observe).
//
// run() is the loop compiled for the concrete class: every built-in
// policy is a final class whose run() instantiates drive on itself, in the
// .cpp that defines its members, so inside the loop its start, next and
// observe calls bind statically. run_search makes one virtual call per
// search. start, next and observe stay virtual for callers that drive a
// policy step by step (tests, and StrongViaWeak's inner policy).
//
// Searchers are single-search objects: construct (or reset) one per run.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "rng/random.hpp"
#include "search/local_view.hpp"

namespace sfs::search {

// search/runner.hpp defines these.
struct RunBudget;
struct RetryBudget;
struct SearchResult;

/// A search policy of either knowledge model.
class Searcher {
 public:
  virtual ~Searcher() = default;

  /// The knowledge model this policy searches in.
  [[nodiscard]] virtual KnowledgeModel model() const noexcept = 0;

  /// Runs the whole search on `view`, a view in model():
  /// drive(view, *this, ...) instantiated on the final class
  /// (search/runner.hpp).
  [[nodiscard]] virtual SearchResult run(LocalView& view, rng::Rng& rng,
                                         const RunBudget& budget,
                                         const RetryBudget& retry) = 0;

  /// Human-readable policy name (used in experiment tables).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Policy for the weak knowledge model.
class WeakSearcher : public Searcher {
 public:
  [[nodiscard]] KnowledgeModel model() const noexcept final {
    return KnowledgeModel::kWeak;
  }

  /// Called once before the first request.
  virtual void start(const LocalView& view, rng::Rng& rng) = 0;

  /// Proposes the next request, or nullopt to give up (e.g. every reachable
  /// edge explored).
  virtual std::optional<WeakRequest> next(const LocalView& view,
                                          rng::Rng& rng) = 0;

  /// Informs the policy of the answer to its last request.
  virtual void observe(const LocalView& view, const WeakRequest& request,
                       graph::VertexId revealed) = 0;
};

/// Policy for the strong knowledge model.
class StrongSearcher : public Searcher {
 public:
  [[nodiscard]] KnowledgeModel model() const noexcept final {
    return KnowledgeModel::kStrong;
  }

  virtual void start(const LocalView& view, rng::Rng& rng) = 0;

  /// Proposes the next vertex to request, or nullopt to give up.
  virtual std::optional<graph::VertexId> next(const LocalView& view,
                                              rng::Rng& rng) = 0;
};

// Each policy's factory is a PolicySpec entry of the policy table
// (search/policy.hpp).

}  // namespace sfs::search

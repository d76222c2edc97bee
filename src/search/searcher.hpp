// Search-algorithm interfaces.
//
// A searcher is a (possibly randomized) policy that, given the current
// LocalView, proposes the next request. The runner (runner.hpp) applies the
// request, informs a weak searcher of the answer, and repeats until the
// target is found, the searcher gives up, or a budget is hit. A strong
// searcher needs no answer callback: a strong request reveals whole
// neighbor lists, and the view's known_vertices() already lists every
// vertex they disclosed, in discovery order.
//
// Searchers are single-search objects: construct (or reset) one per run.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "rng/random.hpp"
#include "search/local_view.hpp"

namespace sfs::search {

/// Policy for the weak knowledge model.
class WeakSearcher {
 public:
  virtual ~WeakSearcher() = default;

  /// Called once before the first request.
  virtual void start(const LocalView& view, rng::Rng& rng) = 0;

  /// Proposes the next request, or nullopt to give up (e.g. every reachable
  /// edge explored).
  virtual std::optional<WeakRequest> next(const LocalView& view,
                                          rng::Rng& rng) = 0;

  /// Informs the policy of the answer to its last request.
  virtual void observe(const LocalView& view, const WeakRequest& request,
                       graph::VertexId revealed) = 0;

  /// Human-readable policy name (used in experiment tables).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Policy for the strong knowledge model.
class StrongSearcher {
 public:
  virtual ~StrongSearcher() = default;

  virtual void start(const LocalView& view, rng::Rng& rng) = 0;

  /// Proposes the next vertex to request, or nullopt to give up.
  virtual std::optional<graph::VertexId> next(const LocalView& view,
                                              rng::Rng& rng) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

// Each policy's factory is a model-tagged PolicySpec entry of the policy
// table (search/policy.hpp).

}  // namespace sfs::search

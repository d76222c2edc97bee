// The strong-to-weak simulation argument of Theorem 1:
//
//   "Any algorithm operating in the strong model can be simulated in the
//    weak model by replacing each request about vertex u with requests
//    about all edges incident to u, which gives a slowdown factor of at
//    most the maximum degree."
//
// StrongViaWeak wraps any StrongSearcher as a WeakSearcher implementing
// exactly this reduction: when the inner policy asks for vertex u, the
// wrapper replays (u, e) weak requests for every unexplored incident edge
// of u, in incidence order, before consulting the inner policy again. The
// inner policy needs no answer: in the weak model a vertex counts as
// requested once every incident edge is explored (LocalView::
// vertex_requested), and its neighbors are then known vertices, exactly
// as after a strong request. The property tests verify the two
// sides of the argument: the simulation discovers the same vertex set in
// the same order, and its weak-request count is at most
// max_degree × (strong requests).
#pragma once

#include <memory>

#include "search/runner.hpp"

namespace sfs::search {

class StrongViaWeak final : public WeakSearcher {
 public:
  explicit StrongViaWeak(std::unique_ptr<StrongSearcher> inner);

  void start(const LocalView& view, rng::Rng& rng) override;
  std::optional<WeakRequest> next(const LocalView& view,
                                  rng::Rng& rng) override;
  /// Nothing to record: the view holds what the request revealed.
  void observe(const LocalView&, const WeakRequest&,
               graph::VertexId) override {}
  SearchResult run(LocalView& view, rng::Rng& rng, const RunBudget& budget,
                   const RetryBudget& retry) override {
    return drive(view, *this, rng, budget, retry);
  }
  [[nodiscard]] std::string name() const override {
    return "weak-sim(" + inner_->name() + ")";
  }

  /// Number of strong requests the inner policy has issued so far.
  [[nodiscard]] std::size_t strong_requests() const noexcept {
    return strong_requests_;
  }

 private:
  std::unique_ptr<StrongSearcher> inner_;
  graph::VertexId current_ = graph::kNoVertex;  // vertex being opened
  std::size_t strong_requests_ = 0;
};

/// Convenience: wraps a fresh Adamic-style strong degree-greedy policy.
[[nodiscard]] std::unique_ptr<WeakSearcher> make_simulated_degree_greedy();

}  // namespace sfs::search

// Strong-model search policies.
//
// In the strong model one request opens *all* edges of a vertex, so the
// natural policies order the known-but-unrequested vertices:
//
//  * DegreeGreedyStrong — highest known degree first. This is exactly the
//    Adamic et al. (2001) high-degree search ("the next visited vertex is
//    the highest degree neighbor of the set of visited vertices").
//  * BfsStrong          — discovery order (breadth-first ball growing).
//  * RandomStrong       — uniformly random known unrequested vertex.
//  * MinIdStrong / MaxIdStrong — oldest-first / youngest-first.
#pragma once

#include <vector>

#include "search/frontier.hpp"
#include "search/runner.hpp"

namespace sfs::search {

/// Priority-driven strong searcher: request the known, unrequested vertex
/// that comes first in `order` (key descending, then id ascending; see
/// search/frontier.hpp).
class PriorityStrong final : public StrongSearcher {
 public:
  PriorityStrong(FrontierOrder order, std::string name);

  void start(const LocalView& view, rng::Rng& rng) override;
  std::optional<graph::VertexId> next(const LocalView& view,
                                      rng::Rng& rng) override;
  SearchResult run(LocalView& view, rng::Rng& rng, const RunBudget& budget,
                   const RetryBudget& retry) override {
    return drive(view, *this, rng, budget, retry);
  }
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  Frontier frontier_;
  std::string name_;
  std::size_t enqueued_upto_ = 0;  // cursor into view.known_vertices()
  void sync(const LocalView& view);
};

/// Adamic et al. high-degree strategy.
[[nodiscard]] std::unique_ptr<StrongSearcher> make_degree_greedy_strong();
/// Oldest-known-vertex-first.
[[nodiscard]] std::unique_ptr<StrongSearcher> make_min_id_strong();
/// Youngest-known-vertex-first.
[[nodiscard]] std::unique_ptr<StrongSearcher> make_max_id_strong();

/// Breadth-first ball growing: vertices requested in discovery order.
class BfsStrong final : public StrongSearcher {
 public:
  void start(const LocalView& view, rng::Rng& rng) override;
  std::optional<graph::VertexId> next(const LocalView& view,
                                      rng::Rng& rng) override;
  SearchResult run(LocalView& view, rng::Rng& rng, const RunBudget& budget,
                   const RetryBudget& retry) override {
    return drive(view, *this, rng, budget, retry);
  }
  [[nodiscard]] std::string name() const override { return "bfs-strong"; }

 private:
  std::size_t cursor_ = 0;  // into view.known_vertices()
};

/// Uniformly random known unrequested vertex.
class RandomStrong final : public StrongSearcher {
 public:
  void start(const LocalView& view, rng::Rng& rng) override;
  std::optional<graph::VertexId> next(const LocalView& view,
                                      rng::Rng& rng) override;
  SearchResult run(LocalView& view, rng::Rng& rng, const RunBudget& budget,
                   const RetryBudget& retry) override {
    return drive(view, *this, rng, budget, retry);
  }
  [[nodiscard]] std::string name() const override { return "random-strong"; }

 private:
  std::vector<graph::VertexId> pool_;
  std::size_t synced_upto_ = 0;
};

}  // namespace sfs::search

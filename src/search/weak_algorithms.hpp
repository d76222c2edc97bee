// Weak-model search policies.
//
// The paper's lower bound holds for *every* weak-model algorithm, so the
// experiment suite runs a portfolio of natural policies and reports each —
// the observed minimum over the portfolio is the empirical counterpart of
// "no searching algorithm can do better than Ω(√n)":
//
//  * RandomWalkWeak     — uniform incident edge from the current vertex
//                         (Adamic et al.'s random-walk baseline).
//  * NoBacktrackWalkWeak— random walk that avoids the arrival edge when
//                         possible.
//  * BfsWeak            — exhaustive breadth-first frontier expansion; the
//                         canonical optimal-up-to-constants blind strategy.
//  * DfsWeak            — depth-first expansion.
//  * DegreeGreedyWeak   — expand an unexplored edge of the highest-degree
//                         discovered vertex (weak-model adaptation of
//                         Adamic et al.'s high-degree strategy).
//  * MinIdGreedyWeak    — expand the lowest-id (oldest) discovered vertex;
//                         exploits the age/degree correlation of evolving
//                         models to climb toward the core.
//  * MaxIdGreedyWeak    — expand the highest-id (youngest) discovered
//                         vertex; the natural "aim near the target id"
//                         heuristic, which the equivalence theorem dooms.
//  * RandomFrontierWeak — expand a uniformly random discovered vertex with
//                         unexplored edges.
#pragma once

#include <deque>
#include <vector>

#include "search/frontier.hpp"
#include "search/runner.hpp"

namespace sfs::search {

/// Pure random walk; measured both in charged requests (distinct edges) and
/// raw steps.
class RandomWalkWeak final : public WeakSearcher {
 public:
  void start(const LocalView& view, rng::Rng& rng) override;
  std::optional<WeakRequest> next(const LocalView& view,
                                  rng::Rng& rng) override;
  void observe(const LocalView& view, const WeakRequest& request,
               graph::VertexId revealed) override;
  SearchResult run(LocalView& view, rng::Rng& rng, const RunBudget& budget,
                   const RetryBudget& retry) override {
    return drive(view, *this, rng, budget, retry);
  }
  [[nodiscard]] std::string name() const override { return "random-walk"; }

 private:
  graph::VertexId current_ = graph::kNoVertex;
};

/// Random walk that never immediately re-traverses its arrival edge unless
/// the current vertex is a degree-1 dead end.
class NoBacktrackWalkWeak final : public WeakSearcher {
 public:
  void start(const LocalView& view, rng::Rng& rng) override;
  std::optional<WeakRequest> next(const LocalView& view,
                                  rng::Rng& rng) override;
  void observe(const LocalView& view, const WeakRequest& request,
               graph::VertexId revealed) override;
  SearchResult run(LocalView& view, rng::Rng& rng, const RunBudget& budget,
                   const RetryBudget& retry) override {
    return drive(view, *this, rng, budget, retry);
  }
  [[nodiscard]] std::string name() const override {
    return "no-backtrack-walk";
  }

 private:
  graph::VertexId current_ = graph::kNoVertex;
  graph::EdgeId arrival_edge_ = graph::kNoEdge;
};

/// Breadth-first exhaustive exploration of the discovered region.
class BfsWeak final : public WeakSearcher {
 public:
  void start(const LocalView& view, rng::Rng& rng) override;
  std::optional<WeakRequest> next(const LocalView& view,
                                  rng::Rng& rng) override;
  void observe(const LocalView& view, const WeakRequest& request,
               graph::VertexId revealed) override;
  SearchResult run(LocalView& view, rng::Rng& rng, const RunBudget& budget,
                   const RetryBudget& retry) override {
    return drive(view, *this, rng, budget, retry);
  }
  [[nodiscard]] std::string name() const override { return "bfs"; }

 private:
  std::deque<graph::VertexId> queue_;
};

/// Depth-first exploration.
class DfsWeak final : public WeakSearcher {
 public:
  void start(const LocalView& view, rng::Rng& rng) override;
  std::optional<WeakRequest> next(const LocalView& view,
                                  rng::Rng& rng) override;
  void observe(const LocalView& view, const WeakRequest& request,
               graph::VertexId revealed) override;
  SearchResult run(LocalView& view, rng::Rng& rng, const RunBudget& budget,
                   const RetryBudget& retry) override {
    return drive(view, *this, rng, budget, retry);
  }
  [[nodiscard]] std::string name() const override { return "dfs"; }

 private:
  std::vector<graph::VertexId> stack_;
};

/// Priority-driven frontier expansion shared by the greedy policies: expand
/// the first unexplored edge of the discovered vertex that comes first in
/// `order` (key descending, then id ascending; see search/frontier.hpp).
class PriorityGreedyWeak final : public WeakSearcher {
 public:
  PriorityGreedyWeak(FrontierOrder order, std::string name);

  void start(const LocalView& view, rng::Rng& rng) override;
  std::optional<WeakRequest> next(const LocalView& view,
                                  rng::Rng& rng) override;
  void observe(const LocalView& view, const WeakRequest& request,
               graph::VertexId revealed) override;
  SearchResult run(LocalView& view, rng::Rng& rng, const RunBudget& budget,
                   const RetryBudget& retry) override {
    return drive(view, *this, rng, budget, retry);
  }
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  Frontier frontier_;
  std::string name_;
};

/// Expand the highest-degree discovered vertex first (Adamic-style).
[[nodiscard]] std::unique_ptr<WeakSearcher> make_degree_greedy_weak();

/// Expand the oldest (smallest-id) discovered vertex first.
[[nodiscard]] std::unique_ptr<WeakSearcher> make_min_id_greedy_weak();

/// Expand the youngest (largest-id) discovered vertex first.
[[nodiscard]] std::unique_ptr<WeakSearcher> make_max_id_greedy_weak();

/// Walk that explores an unexplored incident edge whenever the current
/// vertex has one, and otherwise moves along a uniformly random (already
/// explored, hence free) incident edge — a self-propelled frontier seeker
/// midway between the pure walk and BFS.
class FrontierWalkWeak final : public WeakSearcher {
 public:
  void start(const LocalView& view, rng::Rng& rng) override;
  std::optional<WeakRequest> next(const LocalView& view,
                                  rng::Rng& rng) override;
  void observe(const LocalView& view, const WeakRequest& request,
               graph::VertexId revealed) override;
  SearchResult run(LocalView& view, rng::Rng& rng, const RunBudget& budget,
                   const RetryBudget& retry) override {
    return drive(view, *this, rng, budget, retry);
  }
  [[nodiscard]] std::string name() const override { return "frontier-walk"; }

 private:
  graph::VertexId current_ = graph::kNoVertex;
};

/// Expand a uniformly random discovered vertex with unexplored edges.
class RandomFrontierWeak final : public WeakSearcher {
 public:
  void start(const LocalView& view, rng::Rng& rng) override;
  std::optional<WeakRequest> next(const LocalView& view,
                                  rng::Rng& rng) override;
  void observe(const LocalView& view, const WeakRequest& request,
               graph::VertexId revealed) override;
  SearchResult run(LocalView& view, rng::Rng& rng, const RunBudget& budget,
                   const RetryBudget& retry) override {
    return drive(view, *this, rng, budget, retry);
  }
  [[nodiscard]] std::string name() const override {
    return "random-frontier";
  }

 private:
  std::vector<graph::VertexId> frontier_;
};

}  // namespace sfs::search

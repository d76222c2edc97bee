#include "search/weak_algorithms.hpp"

#include <algorithm>

#include "search/simulate.hpp"

namespace sfs::search {

using graph::EdgeId;
using graph::kNoEdge;
using graph::kNoVertex;
using graph::VertexId;

// ---------------------------------------------------------------- walks

void RandomWalkWeak::start(const LocalView& view, rng::Rng&) {
  current_ = view.start();
}

std::optional<WeakRequest> RandomWalkWeak::next(const LocalView& view,
                                                rng::Rng& rng) {
  const auto inc = view.incident(current_);
  if (inc.empty()) return std::nullopt;  // isolated start: stuck
  // The drawn index is the request's slot.
  const auto slot = static_cast<std::uint32_t>(rng.uniform_index(inc.size()));
  return WeakRequest{current_, slot};
}

void RandomWalkWeak::observe(const LocalView&, const WeakRequest&,
                             VertexId revealed) {
  current_ = revealed;
}

void NoBacktrackWalkWeak::start(const LocalView& view, rng::Rng&) {
  current_ = view.start();
  arrival_edge_ = kNoEdge;
}

std::optional<WeakRequest> NoBacktrackWalkWeak::next(const LocalView& view,
                                                     rng::Rng& rng) {
  const auto inc = view.incident(current_);
  if (inc.empty()) return std::nullopt;
  if (inc.size() == 1) return WeakRequest{current_, 0};
  // A self-loop fills two slots with one edge, so a vertex whose only edge
  // is a self-loop it arrived by has no other edge to choose: take it
  // again, without a draw, like the degree-1 case.
  if (inc.size() == 2 && inc[0] == arrival_edge_ && inc[1] == arrival_edge_) {
    return WeakRequest{current_, 0};
  }
  // Choose uniformly among incident edges other than the arrival edge.
  std::uint32_t slot;
  do {
    slot = static_cast<std::uint32_t>(rng.uniform_index(inc.size()));
  } while (inc[slot] == arrival_edge_);
  return WeakRequest{current_, slot};
}

void NoBacktrackWalkWeak::observe(const LocalView& view,
                                  const WeakRequest& request,
                                  VertexId revealed) {
  current_ = revealed;
  arrival_edge_ = view.incident(request.u)[request.slot];
}

// ---------------------------------------------------------------- bfs/dfs

// The frontier policies seed from every known vertex in discovery order:
// on a fresh search that is just the start, and a RetryBudget restart
// (search/runner.hpp) must re-plan on all the knowledge the view kept.
void BfsWeak::start(const LocalView& view, rng::Rng&) {
  const auto known = view.known_vertices();
  queue_.assign(known.begin(), known.end());
}

std::optional<WeakRequest> BfsWeak::next(const LocalView& view, rng::Rng&) {
  while (!queue_.empty()) {
    const VertexId v = queue_.front();
    if (const auto s = view.first_unexplored_slot(v)) {
      return WeakRequest{v, *s};
    }
    queue_.pop_front();
  }
  return std::nullopt;
}

void BfsWeak::observe(const LocalView&, const WeakRequest&,
                      VertexId revealed) {
  // Duplicates are harmless: an exhausted vertex is popped by next() when
  // first_unexplored comes back empty, so total queue churn stays O(m).
  queue_.push_back(revealed);
}

void DfsWeak::start(const LocalView& view, rng::Rng&) {
  const auto known = view.known_vertices();
  stack_.assign(known.begin(), known.end());
}

std::optional<WeakRequest> DfsWeak::next(const LocalView& view, rng::Rng&) {
  while (!stack_.empty()) {
    const VertexId v = stack_.back();
    if (const auto s = view.first_unexplored_slot(v)) {
      return WeakRequest{v, *s};
    }
    stack_.pop_back();
  }
  return std::nullopt;
}

void DfsWeak::observe(const LocalView&, const WeakRequest&,
                      VertexId revealed) {
  stack_.push_back(revealed);
}

// ---------------------------------------------------------------- greedy

PriorityGreedyWeak::PriorityGreedyWeak(FrontierOrder order, std::string name)
    : frontier_(order), name_(std::move(name)) {}

void PriorityGreedyWeak::start(const LocalView& view, rng::Rng&) {
  frontier_.reset(view.num_vertices());
  frontier_.push(view, view.known_vertices());
}

std::optional<WeakRequest> PriorityGreedyWeak::next(const LocalView& view,
                                                    rng::Rng&) {
  while (!frontier_.empty()) {
    const VertexId v = frontier_.top();
    if (const auto s = view.first_unexplored_slot(v)) {
      return WeakRequest{v, *s};
    }
    frontier_.pop();  // exhausted vertex
  }
  return std::nullopt;
}

void PriorityGreedyWeak::observe(const LocalView& view, const WeakRequest&,
                                 VertexId revealed) {
  // A vertex revealed again over another edge is already a member, and an
  // exhausted one re-enters only to be dropped by next() again.
  frontier_.push(view, revealed);
}

std::unique_ptr<WeakSearcher> make_degree_greedy_weak() {
  return std::make_unique<PriorityGreedyWeak>(FrontierOrder::kDegree,
                                              "degree-greedy");
}

std::unique_ptr<WeakSearcher> make_min_id_greedy_weak() {
  return std::make_unique<PriorityGreedyWeak>(FrontierOrder::kMinId,
                                              "min-id-greedy");
}

std::unique_ptr<WeakSearcher> make_max_id_greedy_weak() {
  return std::make_unique<PriorityGreedyWeak>(FrontierOrder::kMaxId,
                                              "max-id-greedy");
}

// ---------------------------------------------------------------- frontier

void FrontierWalkWeak::start(const LocalView& view, rng::Rng&) {
  current_ = view.start();
}

std::optional<WeakRequest> FrontierWalkWeak::next(const LocalView& view,
                                                  rng::Rng& rng) {
  if (const auto s = view.first_unexplored_slot(current_)) {
    return WeakRequest{current_, *s};
  }
  const auto inc = view.incident(current_);
  if (inc.empty()) return std::nullopt;
  // All incident edges explored: drift along one (free, raw-only request).
  const auto slot = static_cast<std::uint32_t>(rng.uniform_index(inc.size()));
  return WeakRequest{current_, slot};
}

void FrontierWalkWeak::observe(const LocalView&, const WeakRequest&,
                               VertexId revealed) {
  current_ = revealed;
}

void RandomFrontierWeak::start(const LocalView& view, rng::Rng&) {
  const auto known = view.known_vertices();
  frontier_.assign(known.begin(), known.end());
}

std::optional<WeakRequest> RandomFrontierWeak::next(const LocalView& view,
                                                    rng::Rng& rng) {
  while (!frontier_.empty()) {
    const auto idx =
        static_cast<std::size_t>(rng.uniform_index(frontier_.size()));
    const VertexId v = frontier_[idx];
    if (const auto s = view.first_unexplored_slot(v)) {
      return WeakRequest{v, *s};
    }
    // Exhausted: swap-remove and retry.
    frontier_[idx] = frontier_.back();
    frontier_.pop_back();
  }
  return std::nullopt;
}

void RandomFrontierWeak::observe(const LocalView&, const WeakRequest&,
                                 VertexId revealed) {
  frontier_.push_back(revealed);
}

}  // namespace sfs::search

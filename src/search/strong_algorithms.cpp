#include "search/strong_algorithms.hpp"

namespace sfs::search {

using graph::VertexId;

PriorityStrong::PriorityStrong(FrontierOrder order, std::string name)
    : frontier_(order), name_(std::move(name)) {}

void PriorityStrong::start(const LocalView& view, rng::Rng&) {
  frontier_.reset(view.num_vertices());
  enqueued_upto_ = 0;
  sync(view);
}

void PriorityStrong::sync(const LocalView& view) {
  const auto known = view.known_vertices();
  frontier_.push(view, known.subspan(enqueued_upto_));
  enqueued_upto_ = known.size();
}

std::optional<VertexId> PriorityStrong::next(const LocalView& view,
                                             rng::Rng&) {
  sync(view);
  while (!frontier_.empty()) {
    const VertexId v = frontier_.top();
    if (!view.vertex_requested(v)) return v;
    frontier_.pop();
  }
  return std::nullopt;
}

std::unique_ptr<StrongSearcher> make_degree_greedy_strong() {
  return std::make_unique<PriorityStrong>(FrontierOrder::kDegree,
                                          "degree-greedy-strong");
}

std::unique_ptr<StrongSearcher> make_min_id_strong() {
  return std::make_unique<PriorityStrong>(FrontierOrder::kMinId,
                                          "min-id-strong");
}

std::unique_ptr<StrongSearcher> make_max_id_strong() {
  return std::make_unique<PriorityStrong>(FrontierOrder::kMaxId,
                                          "max-id-strong");
}

void BfsStrong::start(const LocalView&, rng::Rng&) { cursor_ = 0; }

std::optional<VertexId> BfsStrong::next(const LocalView& view, rng::Rng&) {
  const auto known = view.known_vertices();
  while (cursor_ < known.size()) {
    const VertexId v = known[cursor_];
    if (!view.vertex_requested(v)) return v;
    ++cursor_;
  }
  return std::nullopt;
}

void RandomStrong::start(const LocalView& view, rng::Rng&) {
  pool_.clear();
  synced_upto_ = 0;
  const auto known = view.known_vertices();
  pool_.assign(known.begin(), known.end());
  synced_upto_ = known.size();
}

std::optional<VertexId> RandomStrong::next(const LocalView& view,
                                           rng::Rng& rng) {
  const auto known = view.known_vertices();
  for (; synced_upto_ < known.size(); ++synced_upto_)
    pool_.push_back(known[synced_upto_]);
  while (!pool_.empty()) {
    const auto idx = static_cast<std::size_t>(rng.uniform_index(pool_.size()));
    const VertexId v = pool_[idx];
    if (!view.vertex_requested(v)) return v;
    pool_[idx] = pool_.back();
    pool_.pop_back();
  }
  return std::nullopt;
}

}  // namespace sfs::search

#include "search/simulate.hpp"

#include "search/strong_algorithms.hpp"

namespace sfs::search {

using graph::kNoVertex;
using graph::VertexId;

StrongViaWeak::StrongViaWeak(std::unique_ptr<StrongSearcher> inner)
    : inner_(std::move(inner)) {
  SFS_REQUIRE(inner_ != nullptr, "inner strong policy required");
}

void StrongViaWeak::start(const LocalView& view, rng::Rng& rng) {
  current_ = kNoVertex;
  strong_requests_ = 0;
  inner_->start(view, rng);
}

std::optional<WeakRequest> StrongViaWeak::next(const LocalView& view,
                                               rng::Rng& rng) {
  for (;;) {
    // The view's slot cursor skips explored edges (free in the weak model
    // anyway, but skipping them keeps the simulation's charged-request
    // accounting tight), and its slot addresses the request.
    if (current_ != kNoVertex) {
      if (const auto s = view.first_unexplored_slot(current_)) {
        return WeakRequest{current_, *s};
      }
    }
    const auto want = inner_->next(view, rng);
    if (!want) return std::nullopt;
    SFS_REQUIRE(view.is_known(*want),
                "inner policy requested an unknown vertex");
    ++strong_requests_;
    current_ = *want;
  }
}

std::unique_ptr<WeakSearcher> make_simulated_degree_greedy() {
  return std::make_unique<StrongViaWeak>(make_degree_greedy_strong());
}

}  // namespace sfs::search

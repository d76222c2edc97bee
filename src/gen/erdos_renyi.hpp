// Erdős–Rényi random graphs: the no-structure baseline (Poisson degrees,
// like Kleinberg's model) used in tests and as a control in experiments.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"
#include "rng/random.hpp"

namespace sfs::gen {

/// G(n, m): exactly m edges, each a uniform ordered pair without
/// replacement over unordered vertex pairs (no loops, no parallel edges).
/// Requires m <= n(n-1)/2.
[[nodiscard]] graph::Graph erdos_renyi_gnm(std::size_t n, std::size_t m,
                                           rng::Rng& rng);

/// G(n, p): each unordered pair independently with probability prob.
/// Uses geometric skipping, O(n + m) expected time.
[[nodiscard]] graph::Graph erdos_renyi_gnp(std::size_t n, double prob,
                                           rng::Rng& rng);

}  // namespace sfs::gen

// Barabási–Albert preferential attachment (BA99), the ubiquitous scale-free
// baseline the paper contrasts against: preferential by *total* degree, m
// edges per new vertex, degree exponent 3.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"
#include "rng/random.hpp"

namespace sfs::gen {

struct BarabasiAlbertParams {
  /// Out-edges per new vertex (>= 1). The m targets of one vertex are
  /// resampled until distinct (classic BA), so vertex v gets min(m, v).
  std::size_t m = 1;
};

/// Generates a BA graph with n vertices. The seed is a single vertex with a
/// self-loop (the standard Bollobás–Riordan convention for m = 1, merged
/// for general m); vertex ids are in birth order.
[[nodiscard]] graph::Graph barabasi_albert(std::size_t n,
                                           const BarabasiAlbertParams& params,
                                           rng::Rng& rng);

}  // namespace sfs::gen

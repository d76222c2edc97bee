// Degree sequence generation for the Molloy–Reed configuration model.
//
// Adamic et al. (2001) and Sarshar et al. (2004) work in the "pure random
// power-law graph" family: fix P(D = d) ∝ d^{-k} for d in [d_min, d_max]
// with k strictly between 2 and 3, then wire stubs uniformly at random.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rng/random.hpp"

namespace sfs::gen {

struct PowerLawSequenceParams {
  /// Degree-distribution exponent k (finite, > 1; Adamic et al. use
  /// 2 < k < 3).
  double exponent = 2.3;
  std::uint32_t d_min = 1;
  /// Maximum degree. 0 means "use the natural cutoff n^{1/(k-1)}".
  std::uint32_t d_max = 0;
};

/// Draws an n-term i.i.d. power-law degree sequence and repairs parity: if
/// the stub total is odd, one uniformly chosen vertex gets +1 (the minimal
/// perturbation that keeps the sequence graphical as a multigraph).
[[nodiscard]] std::vector<std::uint32_t> power_law_degree_sequence(
    std::size_t n, const PowerLawSequenceParams& params, rng::Rng& rng);

/// Sum of a degree sequence (the stub count; must be even to wire).
[[nodiscard]] std::size_t stub_count(const std::vector<std::uint32_t>& degrees);

}  // namespace sfs::gen

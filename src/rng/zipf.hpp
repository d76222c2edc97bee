// Power-law (Zipf-like) integer samplers.
//
// Used to draw degree sequences for the Molloy–Reed configuration model:
// P(D = d) ∝ d^{-k} for d in [d_min, d_max], the "pure random power-law
// graph" family that Adamic et al. (2001) and Sarshar et al. (2004) study.
#pragma once

#include <cstdint>
#include <vector>

#include "rng/discrete.hpp"
#include "rng/random.hpp"

namespace sfs::rng {

/// Bounded discrete power law: P(D = d) ∝ d^{-exponent} for
/// d_min <= d <= d_max. Exact sampling via a precomputed alias table (the
/// support is at most d_max - d_min + 1 values, typically O(sqrt n)).
class BoundedZipf {
 public:
  /// Requires 1 <= d_min <= d_max and a finite exponent > 0.
  BoundedZipf(std::uint32_t d_min, std::uint32_t d_max, double exponent);

  [[nodiscard]] std::uint32_t d_min() const noexcept { return d_min_; }
  [[nodiscard]] std::uint32_t d_max() const noexcept { return d_max_; }
  [[nodiscard]] double exponent() const noexcept { return exponent_; }

  /// Expected value of the distribution.
  [[nodiscard]] double mean() const noexcept { return mean_; }

  /// Probability of the value d (0 outside the support).
  [[nodiscard]] double pmf(std::uint32_t d) const noexcept;

  [[nodiscard]] std::uint32_t sample(Rng& rng) const;

 private:
  std::uint32_t d_min_;
  std::uint32_t d_max_;
  double exponent_;
  double mean_ = 0.0;
  double total_weight_ = 0.0;
  AliasTable table_;
};

/// Natural degree cutoff n^{1/(k-1)} used for power-law graphs with a
/// finite exponent k > 1 (keeps the configuration model close to simple).
[[nodiscard]] std::uint32_t natural_cutoff(std::size_t n, double exponent);

}  // namespace sfs::rng

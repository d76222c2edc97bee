#include "rng/zipf.hpp"

#include <cmath>

#include "base/check.hpp"

namespace sfs::rng {

BoundedZipf::BoundedZipf(std::uint32_t d_min, std::uint32_t d_max,
                         double exponent)
    : d_min_(d_min), d_max_(d_max), exponent_(exponent) {
  SFS_REQUIRE(d_min >= 1, "power-law support must start at >= 1");
  SFS_REQUIRE(d_min <= d_max, "d_min must not exceed d_max");
  SFS_REQUIRE(std::isfinite(exponent) && exponent > 0.0,
              "power-law exponent must be finite and positive");
  std::vector<double> weights;
  weights.reserve(d_max - d_min + 1);
  double total = 0.0;
  double first_moment = 0.0;
  for (std::uint32_t d = d_min; d <= d_max; ++d) {
    const double w = std::pow(static_cast<double>(d), -exponent);
    weights.push_back(w);
    total += w;
    first_moment += w * static_cast<double>(d);
  }
  total_weight_ = total;
  mean_ = first_moment / total;
  table_ = AliasTable(weights);
}

double BoundedZipf::pmf(std::uint32_t d) const noexcept {
  if (d < d_min_ || d > d_max_) return 0.0;
  return std::pow(static_cast<double>(d), -exponent_) / total_weight_;
}

std::uint32_t BoundedZipf::sample(Rng& rng) const {
  return d_min_ + static_cast<std::uint32_t>(table_.sample(rng));
}

std::uint32_t natural_cutoff(std::size_t n, double exponent) {
  SFS_REQUIRE(std::isfinite(exponent) && exponent > 1.0,
              "natural cutoff needs a finite exponent > 1");
  const double cut =
      std::pow(static_cast<double>(n), 1.0 / (exponent - 1.0));
  return static_cast<std::uint32_t>(std::max(1.0, std::floor(cut)));
}

}  // namespace sfs::rng

#include "gen/degree_sequence.hpp"

#include <cmath>
#include <numeric>

#include "base/check.hpp"
#include "rng/zipf.hpp"

namespace sfs::gen {

std::vector<std::uint32_t> power_law_degree_sequence(
    std::size_t n, const PowerLawSequenceParams& params, rng::Rng& rng) {
  SFS_REQUIRE(n >= 2, "need at least two vertices");
  SFS_REQUIRE(std::isfinite(params.exponent) && params.exponent > 1.0,
              "degree exponent must be finite and exceed 1");
  const std::uint32_t d_max =
      params.d_max != 0 ? params.d_max
                        : rng::natural_cutoff(n, params.exponent);
  SFS_REQUIRE(params.d_min >= 1 && params.d_min <= d_max,
              "inconsistent degree bounds");
  const rng::BoundedZipf dist(params.d_min, d_max, params.exponent);

  std::vector<std::uint32_t> degrees(n);
  for (auto& d : degrees) d = dist.sample(rng);
  if (stub_count(degrees) % 2 != 0) {
    degrees[static_cast<std::size_t>(rng.uniform_index(n))] += 1;
  }
  return degrees;
}

std::size_t stub_count(const std::vector<std::uint32_t>& degrees) {
  return std::accumulate(degrees.begin(), degrees.end(), std::size_t{0});
}

}  // namespace sfs::gen

#include "core/theory.hpp"

#include <algorithm>
#include <cmath>

#include "base/check.hpp"

namespace sfs::core::theory {

double strong_lower_bound_exponent(double p) {
  SFS_REQUIRE(p > 0.0 && p <= 1.0, "Mori p must be in (0,1]");
  return std::max(0.0, 0.5 - p);
}

double mori_max_degree_exponent(double p) {
  SFS_REQUIRE(p >= 0.0 && p <= 1.0, "Mori p must be in [0,1]");
  return p;
}

double mori_degree_distribution_exponent(double p) {
  SFS_REQUIRE(p > 0.0 && p <= 1.0, "Mori p must be in (0,1]");
  return 1.0 + 1.0 / p;
}

double lemma3_bound(double p) {
  SFS_REQUIRE(p >= 0.0 && p <= 1.0, "Mori p must be in [0,1]");
  return std::exp(-(1.0 - p));
}

std::size_t lemma3_window_end(std::size_t a) {
  SFS_REQUIRE(a >= 2, "Lemma 3 needs a >= 2");
  const auto root = static_cast<std::size_t>(
      std::floor(std::sqrt(static_cast<double>(a - 1))));
  return checked_add(a, root, "Lemma 3 window end a + floor(sqrt(a - 1))");
}

double lemma1_bound(std::size_t equivalent_vertices,
                    double event_probability) {
  SFS_REQUIRE(event_probability >= 0.0 && event_probability <= 1.0,
              "probability out of range");
  return static_cast<double>(equivalent_vertices) * event_probability / 2.0;
}

}  // namespace sfs::core::theory

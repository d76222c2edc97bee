// Tests for the discrete power-law tail estimator.
#include "stats/powerlaw.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rng/random.hpp"
#include "rng/zipf.hpp"

namespace {

using sfs::rng::BoundedZipf;
using sfs::rng::Rng;
using sfs::stats::fit_power_law_auto;
using sfs::stats::fit_power_law_tail;
using sfs::stats::hurwitz_zeta;
using sfs::stats::power_law_ks;

// n draws of the power law on {xmin, ..., 2^17}: the generators' sampler.
// The truncation leaves out under 1e-4 of the mass at the smallest alpha
// tested (1.8).
std::vector<std::size_t> synthetic(double alpha, std::size_t xmin,
                                   std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const BoundedZipf zipf(static_cast<std::uint32_t>(xmin), 1u << 17, alpha);
  std::vector<std::size_t> data;
  data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) data.push_back(zipf.sample(rng));
  return data;
}

TEST(HurwitzZeta, ReferenceValues) {
  EXPECT_NEAR(hurwitz_zeta(2.0, 1.0), 1.6449340668482264, 1e-9);  // pi^2/6
  EXPECT_NEAR(hurwitz_zeta(2.5, 1.0), 1.3414872572509171, 1e-9);
  EXPECT_NEAR(hurwitz_zeta(3.0, 1.0), 1.2020569031595943, 1e-9);
  // Shift identity: zeta(s, q+1) = zeta(s, q) - q^{-s}.
  EXPECT_NEAR(hurwitz_zeta(2.5, 4.0), hurwitz_zeta(2.5, 3.0) -
                                          std::pow(3.0, -2.5),
              1e-10);
}

TEST(HurwitzZeta, Preconditions) {
  EXPECT_THROW((void)hurwitz_zeta(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)hurwitz_zeta(2.0, 0.0), std::invalid_argument);
}

class PowerLawRecovery : public ::testing::TestWithParam<double> {};

TEST_P(PowerLawRecovery, MleRecoversAlpha) {
  const double alpha = GetParam();
  const auto data = synthetic(alpha, 1, 50000, 42);
  const auto fit = fit_power_law_tail(data, 1);
  EXPECT_NEAR(fit.alpha, alpha, 0.06) << "alpha=" << alpha;
  EXPECT_EQ(fit.xmin, 1u);
  EXPECT_EQ(fit.tail_count, data.size());
  EXPECT_GT(fit.alpha_stderr, 0.0);
  EXPECT_LT(fit.alpha_stderr, 0.05);
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, PowerLawRecovery,
                         ::testing::Values(1.8, 2.1, 2.5, 3.0, 3.5));

TEST(PowerLawFit, EstimateWithinThreeStderr) {
  const double alpha = 2.5;
  const auto data = synthetic(alpha, 1, 30000, 6);
  const auto fit = fit_power_law_tail(data, 1);
  EXPECT_NEAR(fit.alpha, alpha, 4.0 * fit.alpha_stderr);
}

TEST(PowerLawFit, KsSmallForTrueModel) {
  const auto data = synthetic(2.5, 1, 20000, 7);
  const auto fit = fit_power_law_tail(data, 1);
  EXPECT_LT(fit.ks_distance, 0.02);
}

TEST(PowerLawFit, KsLargeForWrongAlpha) {
  const auto data = synthetic(2.5, 1, 20000, 8);
  EXPECT_GT(power_law_ks(data, 1, 4.5), 0.15);
}

TEST(PowerLawFit, XminRespected) {
  const auto data = synthetic(2.3, 5, 30000, 9);
  const auto fit = fit_power_law_tail(data, 5);
  EXPECT_NEAR(fit.alpha, 2.3, 0.08);
}

TEST(PowerLawFit, AutoXminFindsTail) {
  // Mixture: a non-power-law bulk below 8 plus a clean power-law tail.
  Rng rng(10);
  std::vector<std::size_t> data;
  for (int i = 0; i < 8000; ++i)
    data.push_back(1 + static_cast<std::size_t>(rng.uniform_index(7)));
  const auto tail = synthetic(2.4, 8, 12000, 11);
  data.insert(data.end(), tail.begin(), tail.end());
  const auto fit = fit_power_law_auto(data);
  EXPECT_GE(fit.xmin, 5u);
  EXPECT_NEAR(fit.alpha, 2.4, 0.15);
  EXPECT_LT(fit.ks_distance, 0.05);
}

TEST(PowerLawFit, DegenerateSampleHitsCeiling) {
  // All observations at xmin: the likelihood increases with alpha without
  // bound, so the fit saturates at the search ceiling.
  const std::vector<std::size_t> degenerate{2, 2, 2, 2};
  const auto fit = fit_power_law_tail(degenerate, 2);
  EXPECT_GT(fit.alpha, 20.0);
}

TEST(PowerLawFit, Preconditions) {
  const std::vector<std::size_t> tiny{3};
  EXPECT_THROW((void)fit_power_law_tail(tiny, 1), std::invalid_argument);
  const std::vector<std::size_t> ok{1, 2, 3};
  EXPECT_THROW((void)fit_power_law_tail(ok, 0), std::invalid_argument);
}

}  // namespace

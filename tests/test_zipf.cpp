// Tests for the bounded power-law sampler.
#include "rng/zipf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace {

using sfs::rng::BoundedZipf;
using sfs::rng::natural_cutoff;
using sfs::rng::Rng;

TEST(BoundedZipf, PmfSumsToOne) {
  BoundedZipf z(1, 50, 2.3);
  double total = 0.0;
  for (std::uint32_t d = 1; d <= 50; ++d) total += z.pmf(d);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(BoundedZipf, PmfZeroOutsideSupport) {
  BoundedZipf z(2, 10, 2.0);
  EXPECT_DOUBLE_EQ(z.pmf(1), 0.0);
  EXPECT_DOUBLE_EQ(z.pmf(11), 0.0);
  EXPECT_GT(z.pmf(2), 0.0);
  EXPECT_GT(z.pmf(10), 0.0);
}

TEST(BoundedZipf, PmfRatioFollowsPowerLaw) {
  const double k = 2.5;
  BoundedZipf z(1, 100, k);
  EXPECT_NEAR(z.pmf(2) / z.pmf(1), std::pow(2.0, -k), 1e-12);
  EXPECT_NEAR(z.pmf(10) / z.pmf(5), std::pow(2.0, -k), 1e-12);
}

TEST(BoundedZipf, SamplesWithinSupport) {
  BoundedZipf z(3, 17, 2.1);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const auto d = z.sample(rng);
    EXPECT_GE(d, 3u);
    EXPECT_LE(d, 17u);
  }
}

TEST(BoundedZipf, EmpiricalMeanMatchesAnalytic) {
  BoundedZipf z(1, 64, 2.3);
  Rng rng(2);
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i)
    sum += static_cast<double>(z.sample(rng));
  EXPECT_NEAR(sum / kDraws, z.mean(), 0.02 * z.mean());
}

TEST(BoundedZipf, DegenerateSupport) {
  BoundedZipf z(4, 4, 3.0);
  Rng rng(3);
  EXPECT_DOUBLE_EQ(z.mean(), 4.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(rng), 4u);
}

TEST(BoundedZipf, RejectsBadParams) {
  EXPECT_THROW(BoundedZipf(0, 5, 2.0), std::invalid_argument);
  EXPECT_THROW(BoundedZipf(5, 4, 2.0), std::invalid_argument);
  EXPECT_THROW(BoundedZipf(1, 5, 0.0), std::invalid_argument);
  EXPECT_THROW(BoundedZipf(1, 5, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(NaturalCutoff, KnownValues) {
  // n^{1/(k-1)}: 10000^{1/1.5} ≈ 464.1 -> 464.
  EXPECT_EQ(natural_cutoff(10000, 2.5), 464u);
  // k = 3: sqrt(n).
  EXPECT_EQ(natural_cutoff(10000, 3.0), 100u);
}

TEST(NaturalCutoff, MonotoneInN) {
  EXPECT_LE(natural_cutoff(1000, 2.3), natural_cutoff(10000, 2.3));
}

TEST(NaturalCutoff, RejectsFlatExponent) {
  EXPECT_THROW((void)natural_cutoff(100, 1.0), std::invalid_argument);
  // An infinite exponent would pass "> 1" and give a cutoff of 1.
  EXPECT_THROW(
      (void)natural_cutoff(100, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
}

}  // namespace

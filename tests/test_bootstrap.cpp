// Tests for bootstrap confidence intervals.
#include "stats/bootstrap.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>

#include "stats/summary.hpp"

namespace {

using sfs::rng::Rng;

TEST(BootstrapGrouped, ResamplesWithinGroupsOnly) {
  // Two well-separated groups; a difference-of-means statistic. Group-wise
  // resampling keeps every resampled value inside its own group, so the
  // statistic can never cross zero (pooled resampling could).
  const std::vector<std::vector<double>> groups{
      {10.0, 11.0, 9.5, 10.5, 10.2}, {1.0, 1.2, 0.8, 1.1, 0.9}};
  Rng rng(3);
  const auto ci = sfs::stats::bootstrap_grouped_ci(
      groups,
      [](std::span<const std::vector<double>> gs) {
        const double m0 = sfs::stats::summarize(gs[0]).mean;
        const double m1 = sfs::stats::summarize(gs[1]).mean;
        return m0 - m1;
      },
      300, 0.05, rng);
  EXPECT_EQ(ci.replicates, 300u);
  EXPECT_NEAR(ci.point, 9.0, 0.5);
  EXPECT_GT(ci.lo, 7.0);
  EXPECT_LT(ci.hi, 11.0);
  EXPECT_LE(ci.lo, ci.point);
  EXPECT_GE(ci.hi, ci.point);
}

TEST(BootstrapGrouped, NonFiniteReplicatesAreDropped) {
  const std::vector<std::vector<double>> groups{{1.0, 2.0}, {3.0, 4.0}};
  Rng rng(4);
  int calls = 0;
  const auto ci = sfs::stats::bootstrap_grouped_ci(
      groups,
      [&calls](std::span<const std::vector<double>> gs) {
        // The first call scores the original sample; every second
        // resample is "unfittable".
        ++calls;
        if (calls % 2 == 0) return std::numeric_limits<double>::quiet_NaN();
        return sfs::stats::summarize(gs[0]).mean;
      },
      100, 0.1, rng);
  EXPECT_GT(ci.replicates, 0u);
  EXPECT_LT(ci.replicates, 100u);
}

TEST(BootstrapGrouped, AllNonFiniteCollapsesToPoint) {
  const std::vector<std::vector<double>> groups{{1.0, 2.0}};
  Rng rng(5);
  bool first = true;
  const auto ci = sfs::stats::bootstrap_grouped_ci(
      groups,
      [&first](std::span<const std::vector<double>>) {
        if (first) {
          first = false;
          return 7.0;  // the point statistic on the original sample
        }
        return std::numeric_limits<double>::quiet_NaN();
      },
      50, 0.05, rng);
  EXPECT_EQ(ci.replicates, 0u);
  EXPECT_EQ(ci.point, 7.0);
  EXPECT_EQ(ci.lo, 7.0);
  EXPECT_EQ(ci.hi, 7.0);
}

TEST(BootstrapGrouped, Preconditions) {
  Rng rng(6);
  const auto stat = [](std::span<const std::vector<double>>) { return 0.0; };
  const std::vector<std::vector<double>> empty_set{};
  const std::vector<std::vector<double>> empty_group{{1.0}, {}};
  const std::vector<std::vector<double>> ok{{1.0}};
  EXPECT_THROW((void)sfs::stats::bootstrap_grouped_ci(empty_set, stat, 10,
                                                      0.05, rng),
               std::invalid_argument);
  EXPECT_THROW((void)sfs::stats::bootstrap_grouped_ci(empty_group, stat, 10,
                                                      0.05, rng),
               std::invalid_argument);
  EXPECT_THROW((void)sfs::stats::bootstrap_grouped_ci(ok, stat, 1, 0.05, rng),
               std::invalid_argument);
}

}  // namespace

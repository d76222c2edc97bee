// Tests for the closed-form theory predictions.
#include "core/theory.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace {

namespace th = sfs::core::theory;

TEST(Theory, WeakLowerBoundExponentIsHalf) {
  EXPECT_DOUBLE_EQ(th::weak_lower_bound_exponent(), 0.5);
}

TEST(Theory, StrongLowerBoundExponent) {
  EXPECT_DOUBLE_EQ(th::strong_lower_bound_exponent(0.1), 0.4);
  EXPECT_DOUBLE_EQ(th::strong_lower_bound_exponent(0.25), 0.25);
  EXPECT_DOUBLE_EQ(th::strong_lower_bound_exponent(0.5), 0.0);
  EXPECT_DOUBLE_EQ(th::strong_lower_bound_exponent(0.9), 0.0);  // clamped
  EXPECT_THROW((void)th::strong_lower_bound_exponent(0.0),
               std::invalid_argument);
}

TEST(Theory, MoriMaxDegreeExponentIsP) {
  EXPECT_DOUBLE_EQ(th::mori_max_degree_exponent(0.3), 0.3);
  EXPECT_DOUBLE_EQ(th::mori_max_degree_exponent(1.0), 1.0);
  EXPECT_THROW((void)th::mori_max_degree_exponent(1.1),
               std::invalid_argument);
}

TEST(Theory, MoriDegreeDistributionExponent) {
  // p = 1/2 recovers the Barabási–Albert tree exponent 3.
  EXPECT_DOUBLE_EQ(th::mori_degree_distribution_exponent(0.5), 3.0);
  EXPECT_DOUBLE_EQ(th::mori_degree_distribution_exponent(1.0), 2.0);
  EXPECT_NEAR(th::mori_degree_distribution_exponent(0.25), 5.0, 1e-12);
}

TEST(Theory, Lemma3Bound) {
  EXPECT_DOUBLE_EQ(th::lemma3_bound(1.0), 1.0);
  EXPECT_NEAR(th::lemma3_bound(0.0), std::exp(-1.0), 1e-12);
  EXPECT_NEAR(th::lemma3_bound(0.5), std::exp(-0.5), 1e-12);
  // Monotone increasing in p.
  EXPECT_LT(th::lemma3_bound(0.2), th::lemma3_bound(0.8));
}

TEST(Theory, Lemma3WindowEnd) {
  EXPECT_EQ(th::lemma3_window_end(2), 3u);     // 2 + floor(sqrt(1))
  EXPECT_EQ(th::lemma3_window_end(5), 7u);     // 5 + floor(sqrt(4))
  EXPECT_EQ(th::lemma3_window_end(101), 111u); // 101 + floor(sqrt(100))
  EXPECT_EQ(th::lemma3_window_end(10001), 10101u);
  EXPECT_THROW((void)th::lemma3_window_end(1), std::invalid_argument);
}

// b = a + floor(sqrt(a - 1)) past SIZE_MAX is an error, not a wrapped b
// that a caller would go on to grow a tree for.
TEST(Theory, Lemma3WindowEndRejectsOverflow) {
  const std::size_t a = std::size_t{1} << 62;
  EXPECT_EQ(th::lemma3_window_end(a), a + (std::size_t{1} << 31));
  EXPECT_THROW((void)th::lemma3_window_end(SIZE_MAX - 1),
               std::invalid_argument);
}

TEST(Theory, Lemma3WindowScalesAsSqrt) {
  for (const std::size_t a : {100u, 400u, 1600u, 6400u}) {
    const double window =
        static_cast<double>(th::lemma3_window_end(a) - a);
    EXPECT_NEAR(window, std::sqrt(static_cast<double>(a)), 2.0);
  }
}

TEST(Theory, Lemma1Bound) {
  EXPECT_DOUBLE_EQ(th::lemma1_bound(100, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(th::lemma1_bound(0, 1.0), 0.0);
  EXPECT_THROW((void)th::lemma1_bound(10, 1.5), std::invalid_argument);
}

}  // namespace

// Tests for the RNG substrate: determinism, ranges, and coarse
// distributional sanity.
#include "rng/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "rng/stream_audit.hpp"

namespace {

using sfs::rng::audited_stream_seed;
using sfs::rng::mix64;
using sfs::rng::Rng;
using sfs::rng::Xoshiro256;

TEST(Xoshiro, DeterministicForSameSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro, ReseedResets) {
  Xoshiro256 a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256>);
  SUCCEED();
}

TEST(Mix64, StatelessAndNontrivial) {
  EXPECT_EQ(mix64(123), mix64(123));
  EXPECT_NE(mix64(123), mix64(124));
  EXPECT_NE(mix64(0), 0u);
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
}

TEST(Rng, UniformIndexOneIsZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, UniformIndexRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_index(kBuckets)];
  // Each bucket expects 10000; allow ±5% (many sigma).
  for (const int c : counts) {
    EXPECT_GT(c, 9500);
    EXPECT_LT(c, 10500);
  }
}

TEST(Rng, UniformRealInHalfOpenUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRealMeanNearHalf) {
  Rng rng(19);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.5, 7.5);
    EXPECT_GE(u, 2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(47);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyMoves) {
  Rng rng(53);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  const auto before = v;
  rng.shuffle(v);
  EXPECT_NE(v, before);
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(59);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto x : sample) EXPECT_LT(x, 100u);
}

TEST(Rng, SampleWithoutReplacementFullPopulation) {
  Rng rng(61);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOverdraw) {
  Rng rng(67);
  EXPECT_THROW((void)rng.sample_without_replacement(5, 6),
               std::invalid_argument);
}

TEST(Rng, StreamSeedSpreadsReps) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t r = 0; r < 1000; ++r) {
    seeds.insert(audited_stream_seed(9, 0, r));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(Rng, StreamSeedDependsOnExperiment) {
  EXPECT_NE(audited_stream_seed(1, 0, 0), audited_stream_seed(2, 0, 0));
}

TEST(Rng, EmptyRangeIsCheckedError) {
  // No element to return: a checked error the caller can catch, not
  // std::terminate from an exception leaving a noexcept function.
  Rng rng(79);
  EXPECT_THROW((void)rng.uniform_index(0), std::logic_error);
  const std::vector<int> none;
  EXPECT_THROW((void)rng.pick(std::span<const int>(none)), std::logic_error);
}

TEST(Rng, PickReturnsElement) {
  Rng rng(73);
  const std::vector<int> items{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int x = rng.pick(std::span<const int>(items));
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

}  // namespace

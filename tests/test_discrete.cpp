// Tests for the weighted samplers.
#include "rng/discrete.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace {

using sfs::rng::AliasTable;
using sfs::rng::CdfSampler;
using sfs::rng::RepeatArray;
using sfs::rng::Rng;

std::vector<double> empirical_freq(const std::function<std::size_t(Rng&)>& draw,
                                   std::size_t outcomes, int n, Rng& rng) {
  std::vector<double> freq(outcomes, 0.0);
  for (int i = 0; i < n; ++i) freq[draw(rng)] += 1.0;
  for (double& f : freq) f /= n;
  return freq;
}

// ------------------------------------------------------------- AliasTable

TEST(AliasTable, SingleOutcome) {
  const std::vector<double> w{3.0};
  AliasTable t{std::span<const double>(w)};
  Rng rng(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(t.sample(rng), 0u);
}

TEST(AliasTable, MatchesWeights) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  AliasTable t{std::span<const double>(w)};
  Rng rng(2);
  const auto freq = empirical_freq(
      [&](Rng& r) { return t.sample(r); }, 4, 200000, rng);
  EXPECT_NEAR(freq[0], 0.1, 0.01);
  EXPECT_NEAR(freq[1], 0.2, 0.01);
  EXPECT_NEAR(freq[2], 0.3, 0.01);
  EXPECT_NEAR(freq[3], 0.4, 0.01);
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  const std::vector<double> w{1.0, 0.0, 1.0};
  AliasTable t{std::span<const double>(w)};
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(t.sample(rng), 1u);
}

TEST(AliasTable, RejectsEmpty) {
  const std::vector<double> w{};
  EXPECT_THROW(AliasTable{std::span<const double>(w)}, std::invalid_argument);
}

TEST(AliasTable, RejectsNegative) {
  const std::vector<double> w{1.0, -0.5};
  EXPECT_THROW(AliasTable{std::span<const double>(w)}, std::invalid_argument);
}

TEST(AliasTable, RejectsAllZero) {
  const std::vector<double> w{0.0, 0.0};
  EXPECT_THROW(AliasTable{std::span<const double>(w)}, std::invalid_argument);
}

TEST(AliasTable, HandlesExtremeSkew) {
  const std::vector<double> w{1e-12, 1.0};
  AliasTable t{std::span<const double>(w)};
  Rng rng(4);
  int zeros = 0;
  for (int i = 0; i < 100000; ++i) zeros += t.sample(rng) == 0 ? 1 : 0;
  EXPECT_LE(zeros, 2);
}

// ------------------------------------------------------------- CdfSampler

TEST(CdfSampler, ProbabilityAccessors) {
  const std::vector<double> w{1.0, 3.0};
  CdfSampler s{std::span<const double>(w)};
  EXPECT_DOUBLE_EQ(s.total_weight(), 4.0);
  EXPECT_DOUBLE_EQ(s.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(s.probability(1), 0.75);
  EXPECT_THROW((void)s.probability(2), std::invalid_argument);
}

TEST(CdfSampler, MatchesWeights) {
  const std::vector<double> w{2.0, 1.0, 1.0};
  CdfSampler s{std::span<const double>(w)};
  Rng rng(5);
  const auto freq = empirical_freq(
      [&](Rng& r) { return s.sample(r); }, 3, 100000, rng);
  EXPECT_NEAR(freq[0], 0.5, 0.01);
  EXPECT_NEAR(freq[1], 0.25, 0.01);
  EXPECT_NEAR(freq[2], 0.25, 0.01);
}

TEST(CdfSampler, SkipsZeroWeightOutcomes) {
  const std::vector<double> w{0.0, 1.0, 0.0};
  CdfSampler s{std::span<const double>(w)};
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(s.sample(rng), 1u);
}

// ------------------------------------------------------------ RepeatArray

TEST(RepeatArray, CountsUnits) {
  RepeatArray bag;
  bag.push(3);
  bag.push(3);
  bag.push(7);
  EXPECT_EQ(bag.size(), 3u);
  EXPECT_EQ(bag.count(3), 2u);
  EXPECT_EQ(bag.count(7), 1u);
  EXPECT_EQ(bag.count(5), 0u);
}

TEST(RepeatArray, SampleProportionalToUnits) {
  RepeatArray bag;
  for (int i = 0; i < 3; ++i) bag.push(0);
  bag.push(1);
  Rng rng(11);
  int zeros = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) zeros += bag.sample(rng) == 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(zeros) / kDraws, 0.75, 0.01);
}

TEST(RepeatArray, SampleEmptyThrows) {
  RepeatArray bag;
  Rng rng(12);
  EXPECT_THROW((void)bag.sample(rng), std::invalid_argument);
}

// --------------------------------------------------------- BucketedSampler

using sfs::rng::BucketedSampler;

// Pearson chi-square statistic of observed draw counts against the exact
// weights; draws must be large enough that every expected cell count is
// comfortably > 5.
double chi_square(const std::vector<std::size_t>& observed,
                  const std::vector<std::uint64_t>& weights, int draws) {
  double total = 0.0;
  for (const auto w : weights) total += static_cast<double>(w);
  double stat = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] == 0) continue;
    const double expected = draws * static_cast<double>(weights[i]) / total;
    const double diff = static_cast<double>(observed[i]) - expected;
    stat += diff * diff / expected;
  }
  return stat;
}

TEST(BucketedSampler, WeightBookkeeping) {
  BucketedSampler s(4);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.total_weight(), 0u);
  s.set_weight(0, 1);
  s.set_weight(1, 2);
  s.set_weight(2, 3);
  EXPECT_EQ(s.total_weight(), 6u);
  EXPECT_EQ(s.weight(1), 2u);
  s.add(1, 5);  // 2 -> 7 crosses a weight class
  EXPECT_EQ(s.weight(1), 7u);
  s.add(2, -3);  // 3 -> 0 leaves its bucket
  EXPECT_EQ(s.weight(2), 0u);
  EXPECT_EQ(s.total_weight(), 8u);
  const std::size_t id = s.push_back(10);
  EXPECT_EQ(id, 4u);
  EXPECT_EQ(s.total_weight(), 18u);
}

TEST(BucketedSampler, MatchesWeightsChiSquare) {
  // Spread weights across several power-of-two classes, including
  // same-class siblings (5, 6) whose separation relies on the in-class
  // rejection step.
  const std::vector<std::uint64_t> weights{1, 2, 3, 5, 6, 17, 40, 100};
  BucketedSampler s;
  for (const auto w : weights) (void)s.push_back(w);
  Rng rng(13);
  constexpr int kDraws = 400000;
  std::vector<std::size_t> observed(weights.size(), 0);
  for (int i = 0; i < kDraws; ++i) ++observed[s.sample(rng)];
  // 7 degrees of freedom; the 0.001 critical value is 24.3. Seeded, so the
  // test is deterministic — a pass is a pass forever.
  EXPECT_LT(chi_square(observed, weights, kDraws), 24.3);
}

TEST(BucketedSampler, MatchesRepeatArrayDistribution) {
  // Same integer weights in both structures, same chi-square fence: the
  // bucketed sampler realizes RepeatArray's distribution without its
  // O(total weight) memory.
  const std::vector<std::uint64_t> weights{4, 1, 9, 2, 16, 1, 31};
  BucketedSampler s;
  RepeatArray bag;
  for (std::size_t id = 0; id < weights.size(); ++id) {
    (void)s.push_back(weights[id]);
    for (std::uint64_t u = 0; u < weights[id]; ++u) {
      bag.push(static_cast<std::uint32_t>(id));
    }
  }
  constexpr int kDraws = 400000;
  Rng rng_bucket(14);
  Rng rng_bag(15);
  std::vector<std::size_t> from_bucket(weights.size(), 0);
  std::vector<std::size_t> from_bag(weights.size(), 0);
  for (int i = 0; i < kDraws; ++i) {
    ++from_bucket[s.sample(rng_bucket)];
    ++from_bag[bag.sample(rng_bag)];
  }
  // Both empirical distributions sit inside the same exact-weight fence
  // (6 dof, 0.001 critical value 22.5).
  EXPECT_LT(chi_square(from_bucket, weights, kDraws), 22.5);
  EXPECT_LT(chi_square(from_bag, weights, kDraws), 22.5);
}

TEST(BucketedSampler, DynamicUpdateShiftsMass) {
  BucketedSampler s(2);
  s.set_weight(0, 1);
  s.set_weight(1, 1);
  Rng rng(16);
  s.set_weight(1, 63);  // 1 -> 63, several classes up
  int ones = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ones += s.sample(rng) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / kDraws, 63.0 / 64.0, 0.01);
}

TEST(BucketedSampler, ZeroWeightNeverSampled) {
  BucketedSampler s(3);
  s.set_weight(0, 7);
  s.set_weight(1, 5);
  s.set_weight(2, 9);
  s.set_weight(1, 0);
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) EXPECT_NE(s.sample(rng), 1u);
}

TEST(BucketedSampler, DeterministicForSameStream) {
  const std::vector<std::uint64_t> weights{3, 1, 4, 1, 5, 9, 2, 6};
  BucketedSampler a;
  BucketedSampler b;
  for (const auto w : weights) {
    (void)a.push_back(w);
    (void)b.push_back(w);
  }
  Rng ra(18);
  Rng rb(18);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.sample(ra), b.sample(rb));
}

TEST(BucketedSampler, SingleHugeWeightClass) {
  // Top bucket (k = 63) exercises the saturated in-class bound.
  BucketedSampler s(2);
  s.set_weight(0, std::uint64_t{1} << 63);
  Rng rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.sample(rng), 0u);
}

TEST(BucketedSampler, Validation) {
  BucketedSampler s(2);
  Rng rng(20);
  EXPECT_THROW((void)s.sample(rng), std::invalid_argument);  // total 0
  EXPECT_THROW(s.set_weight(2, 1), std::invalid_argument);
  EXPECT_THROW(s.add(0, -1), std::invalid_argument);
  EXPECT_THROW(s.resize(1), std::invalid_argument);  // shrink
}

}  // namespace

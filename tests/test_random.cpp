// Tests for the RNG substrate: determinism, golden draws, ranges, and
// coarse distributional sanity.
#include "rng/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
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

// ------------------------------------------------------------ golden draws
//
// Every pinned experiment output rests on these exact draws. The goldens
// pin the engine and the two variates bit for bit, and an independent
// xoshiro256** with splitmix64 seeding, written here from the published
// algorithm, must reproduce them too.

class ReferenceXoshiro {
 public:
  explicit ReferenceXoshiro(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Lemire's multiply-shift with rejection; counts the redraws.
  std::uint64_t uniform_index(std::uint64_t n, int& rejections) {
    unsigned __int128 m = static_cast<unsigned __int128>(next()) * n;
    if (static_cast<std::uint64_t>(m) < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (static_cast<std::uint64_t>(m) < threshold) {
        ++rejections;
        m = static_cast<unsigned __int128>(next()) * n;
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  double uniform() { return std::ldexp(static_cast<double>(next() >> 11), -53); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> s_{};
};

constexpr std::array<std::uint64_t, 5> kSeed0 = {
    0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL, 0x1a5f849d4933e6e0ULL,
    0x6aa594f1262d2d2cULL, 0xbba5ad4a1f842e59ULL};
constexpr std::array<std::uint64_t, 5> kSeed42 = {
    0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL,
    0xecb8ad4703b360a1ULL, 0xfde6dc7fe2ec5e64ULL};

TEST(RngGolden, XoshiroFirstOutputs) {
  for (const auto& [seed, golden] :
       {std::pair{std::uint64_t{0}, kSeed0}, std::pair{std::uint64_t{42},
                                                       kSeed42}}) {
    Xoshiro256 engine(seed);
    Rng rng(seed);
    ReferenceXoshiro reference(seed);
    for (const std::uint64_t want : golden) {
      EXPECT_EQ(engine(), want) << "seed " << seed;
      EXPECT_EQ(rng.u64(), want) << "seed " << seed;
      EXPECT_EQ(reference.next(), want) << "seed " << seed;
    }
  }
}

TEST(RngGolden, UniformIndexThroughTheRejectionLoop) {
  // n = 3 * 2^62 rejects a draw whose low product word is below 2^62,
  // about one draw in four.
  constexpr std::uint64_t kN = 3ULL << 62;
  constexpr std::array<std::uint64_t, 8> kGolden = {
      0x8682bc397b3b18c3ULL, 0x35852e30bb76219dULL, 0xa1355e772fe15b30ULL,
      0xa79295aac8992936ULL, 0x1d2610b8012a810aULL, 0x67f14cda20978931ULL,
      0xb448097fea18275cULL, 0xa91f939ee8195b91ULL};
  // The raw draw after the eight, which pins how many the loop consumed.
  constexpr std::uint64_t kNext = 0x73903d0540d9c6baULL;
  Rng rng(7);
  ReferenceXoshiro reference(7);
  int rejections = 0;
  for (const std::uint64_t want : kGolden) {
    EXPECT_EQ(rng.uniform_index(kN), want);
    EXPECT_EQ(reference.uniform_index(kN, rejections), want);
  }
  EXPECT_EQ(rejections, 6);
  EXPECT_EQ(rng.u64(), kNext);
  EXPECT_EQ(reference.next(), kNext);
}

TEST(RngGolden, UniformBitPatterns) {
  constexpr std::array<std::uint64_t, 4> kGolden = {
      0x3fcc943fe1349cd0ULL, 0x3fb654fe5f5c55a0ULL, 0x3fcf64b414231b08ULL,
      0x3fdc66cf2bb39252ULL};
  Rng rng(11);
  ReferenceXoshiro reference(11);
  for (const std::uint64_t want : kGolden) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.uniform()), want);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reference.uniform()), want);
  }
}

}  // namespace

// Tests for the scaling-experiment harness.
#include "sim/scaling.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "rng/random.hpp"

namespace {

using sfs::sim::geometric_sizes;
using sfs::sim::measure_scaling;
using sfs::sim::ScalingOptions;
using sfs::sim::ScalingSeries;

// Bit-exact equality of two series, including every raw replication value
// and the derived fits: the checkpoint-resume contract is "same bits".
void expect_bit_identical(const ScalingSeries& a, const ScalingSeries& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].n, b.points[i].n);
    ASSERT_EQ(a.points[i].raw.size(), b.points[i].raw.size());
    for (std::size_t r = 0; r < a.points[i].raw.size(); ++r) {
      EXPECT_EQ(a.points[i].raw[r], b.points[i].raw[r]);
    }
    EXPECT_EQ(a.points[i].summary.mean, b.points[i].summary.mean);
    EXPECT_EQ(a.points[i].summary.variance, b.points[i].summary.variance);
  }
  EXPECT_EQ(a.fit.slope, b.fit.slope);
  EXPECT_EQ(a.fit.intercept, b.fit.intercept);
  EXPECT_EQ(a.fit.slope_stderr, b.fit.slope_stderr);
  EXPECT_EQ(a.weighted_fit.slope, b.weighted_fit.slope);
  EXPECT_EQ(a.slope_ci.point, b.slope_ci.point);
  EXPECT_EQ(a.slope_ci.lo, b.slope_ci.lo);
  EXPECT_EQ(a.slope_ci.hi, b.slope_ci.hi);
  EXPECT_EQ(a.excluded, b.excluded);
}

// A unique-ish scratch path under the test temp dir.
std::string temp_checkpoint(const char* name) {
  const std::string path = ::testing::TempDir() + "sfs_ckpt_" + name + ".csv";
  std::remove(path.c_str());
  return path;
}

// The whole content of a file.
std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(MeasureScaling, RecoversExactExponent) {
  const auto series = measure_scaling(
      {100, 200, 400, 800, 1600}, 3, 1,
      [](std::size_t n, std::uint64_t) {
        return 2.0 * std::sqrt(static_cast<double>(n));
      });
  EXPECT_NEAR(series.fit.slope, 0.5, 1e-9);
  EXPECT_NEAR(std::exp(series.fit.intercept), 2.0, 1e-6);
  EXPECT_EQ(series.points.size(), 5u);
  for (const auto& p : series.points) {
    EXPECT_EQ(p.summary.count, 3u);
    EXPECT_EQ(p.raw.size(), 3u);
  }
}

TEST(MeasureScaling, NoisyExponentWithinTolerance) {
  const auto series = measure_scaling(
      {128, 256, 512, 1024, 2048, 4096}, 10, 2,
      [](std::size_t n, std::uint64_t seed) {
        sfs::rng::Rng rng(seed);
        const double base = std::pow(static_cast<double>(n), 0.8);
        return base * rng.uniform(0.8, 1.2);
      });
  EXPECT_NEAR(series.fit.slope, 0.8, 0.06);
  EXPECT_GT(series.fit.r_squared, 0.98);
}

TEST(MeasureScaling, SeedsAreDeterministic) {
  std::vector<double> seen_a;
  std::vector<double> seen_b;
  // The measure lambda mutates unguarded state, so this test must stay on
  // the sequential path (threads=1, also the default).
  auto run = [](std::vector<double>& seen) {
    return [&seen](std::size_t n, std::uint64_t seed) {
      seen.push_back(static_cast<double>(seed));
      return static_cast<double>(n);
    };
  };
  (void)measure_scaling({10, 20}, 2, 7, run(seen_a));
  (void)measure_scaling({10, 20}, 2, 7, run(seen_b));
  EXPECT_EQ(seen_a, seen_b);
  // Distinct seeds across reps and sizes.
  std::set<double> unique(seen_a.begin(), seen_a.end());
  EXPECT_EQ(unique.size(), seen_a.size());
}

TEST(MeasureScaling, ClaimsLargestSizesFirst) {
  // With one worker the claim order is the call order: sizes descending,
  // equal sizes in (size index, rep) order. Each cell returns its call
  // position, so the series' raw slots show where every (i, r) went.
  std::vector<std::size_t> seen;
  const auto series = measure_scaling(
      {32, 64, 16, 64}, 2, 0x51,
      [&seen](std::size_t n, std::uint64_t) {
        seen.push_back(n);
        return static_cast<double>(seen.size() - 1);
      },
      {.threads = 1});
  EXPECT_EQ(seen, (std::vector<std::size_t>{64, 64, 64, 64, 32, 32, 16, 16}));
  EXPECT_EQ(series.points[0].raw, (std::vector<double>{4, 5}));
  EXPECT_EQ(series.points[1].raw, (std::vector<double>{0, 1}));
  EXPECT_EQ(series.points[2].raw, (std::vector<double>{6, 7}));
  EXPECT_EQ(series.points[3].raw, (std::vector<double>{2, 3}));
}

TEST(MeasureScaling, MeansAndSizesHelpers) {
  const auto series = measure_scaling(
      {10, 100}, 1, 3,
      [](std::size_t n, std::uint64_t) { return static_cast<double>(n); });
  EXPECT_EQ(series.sizes(), (std::vector<double>{10.0, 100.0}));
  EXPECT_EQ(series.means(), (std::vector<double>{10.0, 100.0}));
}

TEST(MeasureScaling, Preconditions) {
  auto f = [](std::size_t, std::uint64_t) { return 1.0; };
  EXPECT_THROW((void)measure_scaling({}, 1, 1, f), std::invalid_argument);
  EXPECT_THROW((void)measure_scaling({10}, 0, 1, f), std::invalid_argument);
}

TEST(GeometricSizes, EndpointsAndMonotonicity) {
  const auto sizes = geometric_sizes(100, 10000, 5);
  EXPECT_EQ(sizes.front(), 100u);
  EXPECT_EQ(sizes.back(), 10000u);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LT(sizes[i - 1], sizes[i]);
  }
}

TEST(GeometricSizes, RoughlyGeometric) {
  const auto sizes = geometric_sizes(100, 1600, 5);
  // Ratios near 2.
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    const double ratio = static_cast<double>(sizes[i]) /
                         static_cast<double>(sizes[i - 1]);
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 2.7);
  }
}

TEST(GeometricSizes, CollapsesSmallRanges) {
  const auto sizes = geometric_sizes(10, 12, 6);
  EXPECT_EQ(sizes.front(), 10u);
  EXPECT_EQ(sizes.back(), 12u);
  for (std::size_t i = 1; i < sizes.size(); ++i)
    EXPECT_LT(sizes[i - 1], sizes[i]);
}

TEST(GeometricSizes, Preconditions) {
  EXPECT_THROW((void)geometric_sizes(0, 10, 3), std::invalid_argument);
  EXPECT_THROW((void)geometric_sizes(10, 5, 3), std::invalid_argument);
  EXPECT_THROW((void)geometric_sizes(1, 10, 1), std::invalid_argument);
}

TEST(GeometricSizes, TailOvershootStaysMonotone) {
  // Regression: with hi large enough that the accumulated FP drift of
  // count-1 ratio multiplications exceeds 0.5, the last rounded point
  // used to overshoot hi — and the endpoint patch then appended hi
  // *below* sizes.back(), breaking monotonicity. These triples reproduce
  // the overshoot on IEEE-754 doubles (found by brute force).
  if constexpr (sizeof(std::size_t) >= 8) {
    const struct {
      std::size_t lo, hi, count;
    } cases[] = {
        {143, 2518436161492595ULL, 9},
        {415, 5464996533652832ULL, 33},
        {266, 9211308109841658ULL, 34},
    };
    for (const auto& c : cases) {
      const auto sizes = geometric_sizes(c.lo, c.hi, c.count);
      EXPECT_EQ(sizes.front(), c.lo);
      EXPECT_EQ(sizes.back(), c.hi);
      for (std::size_t i = 1; i < sizes.size(); ++i) {
        EXPECT_LT(sizes[i - 1], sizes[i])
            << "non-monotone at i=" << i << " for lo=" << c.lo
            << " hi=" << c.hi << " count=" << c.count;
      }
    }
  }
}

TEST(GeometricSizes, PropertyMonotoneWithExactEndpoints) {
  // Property sweep: strictly increasing, first == lo, last == hi, never
  // exceeding hi anywhere, for a spread of grids including degenerate
  // lo == hi and large-n sweep shapes.
  sfs::rng::Rng rng(0x6e0);
  for (int trial = 0; trial < 300; ++trial) {
    const auto lo = static_cast<std::size_t>(rng.uniform_index(2000)) + 1;
    const auto span = static_cast<std::size_t>(rng.uniform_index(4000000));
    const std::size_t hi = lo + span;
    const auto count = static_cast<std::size_t>(rng.uniform_index(38)) + 2;
    const auto sizes = geometric_sizes(lo, hi, count);
    ASSERT_FALSE(sizes.empty());
    EXPECT_EQ(sizes.front(), lo);
    EXPECT_EQ(sizes.back(), hi);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_LE(sizes[i], hi);
      if (i > 0) {
        EXPECT_LT(sizes[i - 1], sizes[i]);
      }
    }
  }
}

TEST(MeasureScaling, AllNonPositiveMeansYieldNoFit) {
  // A measure that never returns a positive value must not leave callers
  // reading slope == 0.0 as a measured exponent: has_fit() is false and
  // every size is reported excluded.
  const auto series = measure_scaling(
      {10, 20, 40}, 2, 5,
      [](std::size_t, std::uint64_t) { return -1.0; });
  EXPECT_FALSE(series.has_fit());
  EXPECT_FALSE(series.fit.ok());
  EXPECT_EQ(series.excluded, (std::vector<std::size_t>{10, 20, 40}));
  EXPECT_FALSE(series.weighted_fit.ok());
}

TEST(MeasureScaling, NoBootstrapCiWithoutAFit) {
  // Even with bootstrap requested, a series with no usable fit must not
  // report a confidence interval: mixed-sign reps can make individual
  // resamples fittable, but an interval around a slope the series itself
  // declares unmeasured would be a fabricated error bar.
  ScalingOptions options;
  options.bootstrap_replicates = 100;
  std::map<std::size_t, int> calls;  // sequential run: plain state is fine
  const auto series = measure_scaling(
      {10, 20, 40}, 2, 5,
      [&calls](std::size_t n, std::uint64_t) {
        if (n == 10) return 1.0;  // the single usable point
        // Mixed-sign reps {3, -9}: the point's mean is negative, but a
        // resample drawing 3 twice is positive — fittable without the
        // guard.
        return calls[n]++ == 0 ? 3.0 : -9.0;
      },
      options);
  ASSERT_FALSE(series.has_fit());
  EXPECT_EQ(series.slope_ci.replicates, 0u);
  EXPECT_EQ(series.slope_ci.lo, 0.0);
  EXPECT_EQ(series.slope_ci.hi, 0.0);
  // The standalone recompute entry point enforces the same contract
  // rather than fabricating a finite interval from fittable resamples.
  EXPECT_THROW((void)sfs::sim::bootstrap_slope_ci(series, 100),
               std::invalid_argument);
}

TEST(MeasureScaling, SingleUsablePointYieldsNoFit) {
  const auto series = measure_scaling(
      {10, 20, 40}, 2, 5,
      [](std::size_t n, std::uint64_t) { return n == 20 ? 3.0 : 0.0; });
  EXPECT_FALSE(series.has_fit());
  EXPECT_EQ(series.excluded, (std::vector<std::size_t>{10, 40}));
}

TEST(MeasureScaling, SingleDistinctSizeIsDegenerateNotFatal) {
  // A grid whose sizes collapsed to one distinct value (duplicate n) has
  // an undefined slope; this must degrade to a flagged no-fit, not an
  // exception that kills a multi-hour sweep mid-flight.
  const auto series = measure_scaling(
      {100, 100}, 3, 5,
      [](std::size_t, std::uint64_t seed) {
        sfs::rng::Rng rng(seed);
        return 1.0 + rng.uniform();
      });
  EXPECT_TRUE(series.fit.degenerate);
  EXPECT_FALSE(series.has_fit());
  EXPECT_TRUE(series.excluded.empty());
}

TEST(MeasureScaling, WeightedFitMatchesOlsOnHomoscedasticData) {
  // Deterministic measure: no point has measured spread, so the weights
  // degrade to uniform and the weighted fit must equal plain OLS.
  const auto series = measure_scaling(
      {100, 200, 400, 800}, 3, 1,
      [](std::size_t n, std::uint64_t) {
        return 2.0 * std::sqrt(static_cast<double>(n));
      });
  ASSERT_TRUE(series.has_fit());
  ASSERT_TRUE(series.weighted_fit.ok());
  EXPECT_EQ(series.weighted_fit.slope, series.fit.slope);
  EXPECT_EQ(series.weighted_fit.intercept, series.fit.intercept);
}

TEST(MeasureScaling, WeightedFitFavorsLowVariancePoints) {
  // Noise grows steeply with n; the weighted exponent should sit closer
  // to the true 0.5 than OLS more often than not — here we just check it
  // is produced, finite, and in a sane band.
  const auto series = measure_scaling(
      {64, 128, 256, 512, 1024, 2048}, 8, 11,
      [](std::size_t n, std::uint64_t seed) {
        sfs::rng::Rng rng(seed);
        const double base = std::sqrt(static_cast<double>(n));
        const double rel = n > 512 ? 0.5 : 0.02;
        return base * (1.0 + rel * (rng.uniform() - 0.5));
      });
  ASSERT_TRUE(series.has_fit());
  ASSERT_TRUE(series.weighted_fit.ok());
  EXPECT_NEAR(series.weighted_fit.slope, 0.5, 0.1);
  EXPECT_GT(series.weighted_fit.slope_stderr, 0.0);
}

TEST(MeasureScaling, BootstrapSlopeCiBracketsSlope) {
  ScalingOptions options;
  options.bootstrap_replicates = 200;
  const auto series = measure_scaling(
      {128, 256, 512, 1024}, 12, 3,
      [](std::size_t n, std::uint64_t seed) {
        sfs::rng::Rng rng(seed);
        return std::pow(static_cast<double>(n), 0.6) *
               rng.uniform(0.9, 1.1);
      },
      options);
  ASSERT_TRUE(series.has_fit());
  ASSERT_GT(series.slope_ci.replicates, 0u);
  // The point statistic of the CI is the OLS slope itself.
  EXPECT_EQ(series.slope_ci.point, series.fit.slope);
  EXPECT_LE(series.slope_ci.lo, series.fit.slope);
  EXPECT_GE(series.slope_ci.hi, series.fit.slope);
  EXPECT_NEAR(series.slope_ci.lo, 0.6, 0.1);
  EXPECT_NEAR(series.slope_ci.hi, 0.6, 0.1);
  EXPECT_LT(series.slope_ci.lo, series.slope_ci.hi);

  // Recomputable from the stored series, deterministically.
  const auto again =
      sfs::sim::bootstrap_slope_ci(series, options.bootstrap_replicates);
  EXPECT_EQ(again.lo, series.slope_ci.lo);
  EXPECT_EQ(again.hi, series.slope_ci.hi);
}

TEST(MeasureScaling, BootstrapCiSkippedByDefault) {
  const auto series = measure_scaling(
      {10, 20}, 2, 3,
      [](std::size_t n, std::uint64_t) { return static_cast<double>(n); });
  EXPECT_EQ(series.slope_ci.replicates, 0u);
}

TEST(MeasureScalingCheckpoint, WritesAndReplaysBitIdentically) {
  const std::string path = temp_checkpoint("full");
  auto measure = [](std::size_t n, std::uint64_t seed) {
    sfs::rng::Rng rng(seed);
    return std::sqrt(static_cast<double>(n)) * rng.uniform(0.5, 1.5);
  };
  const std::vector<std::size_t> sizes{32, 64, 128, 256};
  const std::size_t reps = 4;

  ScalingOptions plain;
  plain.bootstrap_replicates = 50;
  const auto reference = measure_scaling(sizes, reps, 0xC0, measure, plain);

  ScalingOptions with_ckpt = plain;
  with_ckpt.checkpoint_path = path;
  const auto first = measure_scaling(sizes, reps, 0xC0, measure, with_ckpt);
  expect_bit_identical(reference, first);

  // Second run over the complete checkpoint: every cell restored, the
  // measure function must never run, and the series is the same bits.
  std::atomic<int> calls{0};
  const auto replay = measure_scaling(
      sizes, reps, 0xC0,
      [&](std::size_t n, std::uint64_t seed) {
        ++calls;
        return measure(n, seed);
      },
      with_ckpt);
  EXPECT_EQ(calls.load(), 0);
  expect_bit_identical(reference, replay);
}

TEST(MeasureScalingCheckpoint, ResumesPartialGridBitIdentically) {
  const std::string full_path = temp_checkpoint("rfull");
  const std::string part_path = temp_checkpoint("rpart");
  auto measure = [](std::size_t n, std::uint64_t seed) {
    sfs::rng::Rng rng(seed);
    return static_cast<double>(n) * rng.uniform(0.9, 1.1);
  };
  const std::vector<std::size_t> sizes{16, 32, 64};
  const std::size_t reps = 3;

  ScalingOptions options;
  options.checkpoint_path = full_path;
  const auto reference = measure_scaling(sizes, reps, 0xCAFE, measure,
                                         options);

  // Simulate an interrupted run: keep the meta/header rows, the first 4
  // complete cell records, and one torn (half-written) record.
  {
    std::ifstream in(full_path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_GE(lines.size(), 2u + 5u);
    std::ofstream out(part_path);
    for (std::size_t i = 0; i < 2 + 4; ++i) out << lines[i] << '\n';
    out << lines[6].substr(0, lines[6].size() / 2);  // torn final line
  }

  std::atomic<int> calls{0};
  ScalingOptions resume;
  resume.checkpoint_path = part_path;
  const auto resumed = measure_scaling(
      sizes, reps, 0xCAFE,
      [&](std::size_t n, std::uint64_t seed) {
        ++calls;
        return measure(n, seed);
      },
      resume);
  expect_bit_identical(reference, resumed);
  // 9 cells total, 4 restored, the torn one and the rest recomputed.
  EXPECT_EQ(calls.load(), 5);

  // And the repaired checkpoint now replays completely.
  std::atomic<int> replay_calls{0};
  const auto replay = measure_scaling(
      sizes, reps, 0xCAFE,
      [&](std::size_t n, std::uint64_t seed) {
        ++replay_calls;
        return measure(n, seed);
      },
      resume);
  EXPECT_EQ(replay_calls.load(), 0);
  expect_bit_identical(reference, replay);
}

TEST(MeasureScalingCheckpoint, ResumeMatchesAnyThreadCount) {
  // A checkpoint written sequentially must resume bit-identically under a
  // parallel fan-out and vice versa: cell values depend only on (i, r).
  const std::string path = temp_checkpoint("threads");
  auto measure = [](std::size_t n, std::uint64_t seed) {
    sfs::rng::Rng rng(seed);
    return std::sqrt(static_cast<double>(n)) + rng.uniform();
  };
  const std::vector<std::size_t> sizes{16, 32, 64, 128};
  const std::size_t reps = 4;

  const auto reference = measure_scaling(sizes, reps, 0x7D, measure);

  // Partial sequential run: interrupt by keeping only 3 data rows.
  ScalingOptions seq;
  seq.checkpoint_path = path;
  seq.threads = 1;
  (void)measure_scaling(sizes, reps, 0x7D, measure, seq);
  {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < 2 + 3; ++i) out << lines[i] << '\n';
  }

  ScalingOptions par;
  par.checkpoint_path = path;
  par.threads = 3;
  const auto resumed = measure_scaling(sizes, reps, 0x7D, measure, par);
  expect_bit_identical(reference, resumed);
}

TEST(MeasureScalingCheckpoint, ResumesFromTopSizeRows) {
  // The top-size cells are claimed first, so they are the rows an early
  // interrupt leaves. Resuming from only those measures the other sizes,
  // largest first, and folds the uninterrupted run's bits.
  const std::string path = temp_checkpoint("top");
  auto measure = [](std::size_t n, std::uint64_t seed) {
    sfs::rng::Rng rng(seed);
    return static_cast<double>(n) * rng.uniform(0.5, 1.5);
  };
  const std::vector<std::size_t> sizes{16, 32, 64};
  const std::size_t reps = 3;

  ScalingOptions options;
  options.bootstrap_replicates = 50;
  const auto reference = measure_scaling(sizes, reps, 0x70B, measure, options);
  options.checkpoint_path = path;
  (void)measure_scaling(sizes, reps, 0x70B, measure, options);
  {
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), 2 + sizes.size() * reps);
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t k = 0; k < 2 + reps; ++k) {
      if (k >= 2) {
        EXPECT_EQ(lines[k].rfind("2,64," + std::to_string(k - 2) + ",", 0),
                  0u)
            << lines[k];
      }
      out << lines[k] << '\n';
    }
  }

  std::vector<std::size_t> seen;
  const auto resumed = measure_scaling(
      sizes, reps, 0x70B,
      [&](std::size_t n, std::uint64_t seed) {
        seen.push_back(n);
        return measure(n, seed);
      },
      options);
  EXPECT_EQ(seen, (std::vector<std::size_t>{32, 32, 32, 16, 16, 16}));
  expect_bit_identical(reference, resumed);
}

TEST(MeasureScalingCheckpoint, ResumeIgnoresRowOrder) {
  // Workers append cells in completion order, so the order of a
  // checkpoint's cell rows is not fixed: resume must give the same result
  // for any order.
  const std::string path = temp_checkpoint("order");
  const std::string reversed = temp_checkpoint("order_rev");
  auto measure = [](std::size_t n, std::uint64_t seed) {
    sfs::rng::Rng rng(seed);
    return static_cast<double>(n) * rng.uniform(0.5, 1.5);
  };
  const std::vector<std::size_t> sizes{16, 32, 64};
  const std::size_t reps = 3;
  const std::size_t cells = sizes.size() * reps;

  ScalingOptions options;
  options.bootstrap_replicates = 50;
  const auto reference = measure_scaling(sizes, reps, 0x0DE, measure, options);
  options.checkpoint_path = path;
  (void)measure_scaling(sizes, reps, 0x0DE, measure, options);

  // The same checkpoint with its cell rows reversed; the meta and header
  // rows stay first.
  {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 2 + cells);
    std::ofstream out(reversed);
    out << lines[0] << '\n' << lines[1] << '\n';
    for (std::size_t k = lines.size(); k-- > 2;) out << lines[k] << '\n';
  }
  const std::string reversed_bytes = file_bytes(reversed);
  ASSERT_NE(reversed_bytes, file_bytes(path));

  // Resume restores every cell, measures and appends nothing, and folds
  // the uninterrupted run's bits.
  std::atomic<int> calls{0};
  options.checkpoint_path = reversed;
  const auto resumed = measure_scaling(
      sizes, reps, 0x0DE,
      [&](std::size_t n, std::uint64_t seed) {
        ++calls;
        return measure(n, seed);
      },
      options);
  EXPECT_EQ(calls.load(), 0);
  expect_bit_identical(reference, resumed);
  EXPECT_EQ(file_bytes(reversed), reversed_bytes);
}

TEST(MeasureScalingCheckpoint, MismatchedGridIsRejected) {
  const std::string path = temp_checkpoint("mismatch");
  auto measure = [](std::size_t n, std::uint64_t) {
    return static_cast<double>(n);
  };
  ScalingOptions options;
  options.checkpoint_path = path;
  (void)measure_scaling({8, 16}, 2, 1, measure, options);

  // Different seed, reps, or sizes: resuming would silently mix
  // incompatible experiments, so it must throw instead.
  EXPECT_THROW((void)measure_scaling({8, 16}, 2, 2, measure, options),
               std::invalid_argument);
  EXPECT_THROW((void)measure_scaling({8, 16}, 3, 1, measure, options),
               std::invalid_argument);
  EXPECT_THROW((void)measure_scaling({8, 32}, 2, 1, measure, options),
               std::invalid_argument);
}

}  // namespace

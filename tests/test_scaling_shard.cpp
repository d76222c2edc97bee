// Tests for sharded scaling sweeps: k shard processes writing k
// checkpoints, folded by merge_checkpoints + an unsharded replay, must be
// bit-identical to one process computing the whole grid — at any thread
// count per shard.
#include "sim/scaling.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rng/random.hpp"

namespace {

using sfs::sim::measure_scaling;
using sfs::sim::measure_scaling_shard;
using sfs::sim::merge_checkpoints;
using sfs::sim::ScalingOptions;
using sfs::sim::ScalingSeries;

// Bit-exact equality of two series, including every raw replication value
// and the derived fits (same contract as the checkpoint-resume tests).
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
  EXPECT_EQ(a.weighted_fit.slope, b.weighted_fit.slope);
  EXPECT_EQ(a.weighted_fit.intercept, b.weighted_fit.intercept);
  EXPECT_EQ(a.slope_ci.point, b.slope_ci.point);
  EXPECT_EQ(a.slope_ci.lo, b.slope_ci.lo);
  EXPECT_EQ(a.slope_ci.hi, b.slope_ci.hi);
  EXPECT_EQ(a.excluded, b.excluded);
}

std::string temp_path(const char* name) {
  const std::string path = ::testing::TempDir() + "sfs_shard_" + name + ".csv";
  std::remove(path.c_str());
  return path;
}

// Deterministic, thread-safe stand-in for a real measurement: depends on
// both n and the derived cell seed, so a shard computing the wrong cell
// or reusing the wrong seed changes the folded bits.
double synthetic_measure(std::size_t n, std::uint64_t seed) {
  const double jitter =
      static_cast<double>(sfs::rng::mix64(seed) >> 11) * 0x1.0p-53;
  return static_cast<double>(n) * (1.0 + 0.25 * jitter);
}

// synthetic_measure in the scratch-aware shape measure_scaling_shard takes.
double synthetic_scratch_measure(std::size_t n, std::uint64_t seed,
                                 sfs::gen::GenScratch&) {
  return synthetic_measure(n, seed);
}

const std::vector<std::size_t> kSizes = {100, 200, 400, 800};
constexpr std::size_t kReps = 3;
constexpr std::uint64_t kSeed = 0x5AAD5EED;

ScalingOptions base_options() {
  ScalingOptions options;
  options.threads = 1;
  options.bootstrap_replicates = 50;
  return options;
}

// Runs shard i/k into its own checkpoint with the given thread count;
// returns the checkpoint path.
std::string run_shard(const char* tag, std::size_t index, std::size_t count,
                      std::size_t threads, std::atomic<std::size_t>* calls,
                      std::uint64_t seed = kSeed) {
  std::ostringstream name;
  name << tag << "_" << index << "of" << count;
  const std::string path = temp_path(name.str().c_str());
  ScalingOptions options = base_options();
  options.threads = threads;
  options.checkpoint_path = path;
  const std::size_t measured = measure_scaling_shard(
      kSizes, kReps, seed,
      [&](std::size_t n, std::uint64_t s, sfs::gen::GenScratch&) {
        if (calls != nullptr) calls->fetch_add(1);
        return synthetic_measure(n, s);
      },
      options, index, count);
  // The checkpoint starts empty, so the shard measures every cell it owns:
  // the flattened tasks t < 12 with t % count == index.
  EXPECT_EQ(measured, (kSizes.size() * kReps - index + count - 1) / count);
  return path;
}

// Folds a merged checkpoint into a series without recomputing any cell:
// the replay must find every cell already present.
ScalingSeries fold_merged(const std::string& merged) {
  ScalingOptions options = base_options();
  options.checkpoint_path = merged;
  std::atomic<std::size_t> recomputed{0};
  const auto series = measure_scaling(
      kSizes, kReps, kSeed,
      [&](std::size_t n, std::uint64_t s) {
        recomputed.fetch_add(1);
        return synthetic_measure(n, s);
      },
      options);
  EXPECT_EQ(recomputed.load(), 0u)
      << "folding a merged checkpoint must replay, not recompute";
  return series;
}

TEST(ScalingShard, TwoShardsMergedFoldBitIdenticalToSingleProcess) {
  const auto direct =
      measure_scaling(kSizes, kReps, kSeed, synthetic_measure, base_options());

  // Each shard measures exactly its half of the 12 cells.
  std::atomic<std::size_t> calls{0};
  const std::string s0 = run_shard("two", 0, 2, /*threads=*/1, &calls);
  EXPECT_EQ(calls.load(), kSizes.size() * kReps / 2);
  const std::string s1 = run_shard("two", 1, 2, /*threads=*/1, &calls);
  EXPECT_EQ(calls.load(), kSizes.size() * kReps);

  const std::string merged = temp_path("two_merged");
  EXPECT_EQ(merge_checkpoints({s0, s1}, merged), kSizes.size() * kReps);
  expect_bit_identical(direct, fold_merged(merged));
}

TEST(ScalingShard, ThreeShardsWithThreadedWorkersStayBitIdentical) {
  const auto direct =
      measure_scaling(kSizes, kReps, kSeed, synthetic_measure, base_options());

  // Uneven split (12 cells over 3 shards of 4) with a 4-worker pool per
  // shard: completion order inside each shard is nondeterministic, the
  // folded bits must not be.
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < 3; ++i) {
    paths.push_back(run_shard("three", i, 3, /*threads=*/4, nullptr));
  }
  const std::string merged = temp_path("three_merged");
  EXPECT_EQ(merge_checkpoints(paths, merged), kSizes.size() * kReps);
  expect_bit_identical(direct, fold_merged(merged));

  // Merge order must not matter either.
  const std::string merged_rev = temp_path("three_merged_rev");
  EXPECT_EQ(merge_checkpoints({paths[2], paths[0], paths[1]}, merged_rev),
            kSizes.size() * kReps);
  expect_bit_identical(direct, fold_merged(merged_rev));
}

TEST(ScalingShard, ShardResumeSkipsCompletedCells) {
  std::atomic<std::size_t> calls{0};
  const std::string path = run_shard("resume", 0, 2, /*threads=*/1, &calls);
  const std::size_t first = calls.load();
  EXPECT_GT(first, 0u);

  // Rerunning the same shard against its checkpoint measures nothing new.
  ScalingOptions options = base_options();
  options.checkpoint_path = path;
  const std::size_t measured = measure_scaling_shard(
      kSizes, kReps, kSeed,
      [&](std::size_t n, std::uint64_t s, sfs::gen::GenScratch&) {
        calls.fetch_add(1);
        return synthetic_measure(n, s);
      },
      options, 0, 2);
  EXPECT_EQ(measured, 0u);
  EXPECT_EQ(calls.load(), first);
}

TEST(ScalingShard, RejectsBadShardArguments) {
  ScalingOptions with_ckpt = base_options();
  with_ckpt.checkpoint_path = temp_path("args");
  // Checkpoint path is mandatory: it is the shard's only output.
  EXPECT_THROW(measure_scaling_shard(kSizes, kReps, kSeed,
                                     synthetic_scratch_measure,
                                     base_options(), 0, 2),
               std::invalid_argument);
  // shard_index must be < shard_count, and shard_count nonzero.
  EXPECT_THROW(measure_scaling_shard(kSizes, kReps, kSeed,
                                     synthetic_scratch_measure, with_ckpt, 2,
                                     2),
               std::invalid_argument);
  EXPECT_THROW(measure_scaling_shard(kSizes, kReps, kSeed,
                                     synthetic_scratch_measure, with_ckpt, 0,
                                     0),
               std::invalid_argument);
}

TEST(ScalingShard, MergeRejectsMismatchedGrids) {
  std::vector<std::string> paths;
  paths.push_back(run_shard("meta", 0, 2, 1, nullptr));
  // Same shard layout, different base seed: the meta rows disagree.
  paths.push_back(run_shard("meta_other", 1, 2, 1, nullptr, kSeed ^ 1));
  const std::string merged = temp_path("meta_merged");
  EXPECT_THROW(merge_checkpoints(paths, merged), std::invalid_argument);
}

TEST(ScalingShard, MergeRejectsConflictingCellValues) {
  const std::string a = run_shard("conflict", 0, 1, 1, nullptr);

  // Forge a second checkpoint that disagrees on one completed cell.
  std::ifstream in(a);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_GT(lines.size(), 3u);
  std::string& row = lines[2];  // first data row: idx,n,rep,value,end
  const auto comma = row.find(',', row.find(',', row.find(',') + 1) + 1);
  ASSERT_NE(comma, std::string::npos);
  row.insert(comma + 1, "9");  // prepend a digit to the value field

  const std::string b = temp_path("conflict_forged");
  std::ofstream out(b, std::ios::binary);
  for (const auto& l : lines) out << l << '\n';
  out.close();

  const std::string merged = temp_path("conflict_merged");
  EXPECT_THROW(merge_checkpoints({a, b}, merged), std::invalid_argument);
}

TEST(ScalingShard, MergeRequiresInputs) {
  EXPECT_THROW(merge_checkpoints({}, temp_path("empty_merged")),
               std::invalid_argument);
  EXPECT_THROW(
      merge_checkpoints({::testing::TempDir() + "sfs_shard_does_not_exist.csv"},
                        temp_path("missing_merged")),
      std::invalid_argument);
}

}  // namespace

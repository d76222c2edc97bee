// Scaling experiments: measure a scalar quantity at a sweep of problem
// sizes with independent replications, then fit the growth exponent.
//
// This is the workhorse of experiments E1-E3, E5, E7 and E8: "does measured
// cost grow like n^b with the b the theorem predicts?" Large-n sweeps get
// three production features on top of the basic grid (see docs/PERF.md):
//
//  - honest error bars on the exponent: a variance-weighted log-log fit
//    alongside the OLS fit, and a stratified bootstrap CI on the slope
//    computed from the per-point raw replications;
//  - checkpoint/resume: completed (n, rep, value) cells stream to a CSV
//    checkpoint as they finish, and a rerun pointed at the same file
//    recomputes only the missing cells — with bit-identical seeds, so the
//    resumed series equals the uninterrupted one bit for bit;
//  - RNG stream auditing: under SFS_RNG_AUDIT=1 every per-cell seed
//    derivation is recorded and cross-checked for collisions
//    (rng/stream_audit.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gen/scratch.hpp"
#include "stats/bootstrap.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"

namespace sfs::sim {

/// One sweep point: size n with its replicated measurements summarized.
struct ScalingPoint {
  std::size_t n = 0;
  stats::Summary summary;
  std::vector<double> raw;  // all replication values, for quantiles
};

/// A full sweep plus the fitted log-log slope over the point means.
struct ScalingSeries {
  std::vector<ScalingPoint> points;

  /// OLS fit of log(mean) vs log(n) over points with positive means.
  /// Default-constructed (fit.count == 0) when fewer than two points
  /// qualified, degenerate when the qualifying sizes collapsed to one
  /// value — check has_fit() before quoting fit.slope; a
  /// default-constructed fit reads as slope 0.0, which is NOT a measured
  /// exponent.
  stats::LinearFit fit;

  /// Variance-weighted log-log fit over the same points: each point is
  /// weighted by 1 / Var(log mean) ≈ (mean / stderr_mean)^2 (delta
  /// method), so noisy points — typically the few-rep high-n ones — do
  /// not drown out the rest. Points whose stderr is zero (deterministic
  /// measure, or a single rep) borrow the smallest positive relative
  /// error in the sweep; if no point has one, the weights are uniform and
  /// this equals `fit`.
  stats::LinearFit weighted_fit;

  /// Stratified bootstrap CI of the OLS slope (resampling replications
  /// within each size; see bootstrap_slope_ci). replicates == 0 when not
  /// computed (ScalingOptions::bootstrap_replicates == 0) or when too few
  /// resamples produced a fittable grid.
  stats::BootstrapCi slope_ci;

  /// Sizes n excluded from the fits (non-positive or non-finite mean),
  /// in sweep order. Report these: a silently shrinking fit is how a
  /// broken measure function masquerades as a clean exponent.
  std::vector<std::size_t> excluded;

  /// True when `fit` is usable (>= 2 positive-mean points, non-collapsed
  /// sizes). Benches must assert this before reporting fit.slope.
  [[nodiscard]] bool has_fit() const noexcept { return fit.ok(); }

  /// Means per point (same order as points).
  [[nodiscard]] std::vector<double> means() const;
  /// Sizes per point as doubles.
  [[nodiscard]] std::vector<double> sizes() const;
};

/// Knobs for measure_scaling beyond the grid itself.
struct ScalingOptions {
  /// Replication fan-out: 1 = sequential (default), 0 = shared pool,
  /// n = pool of n workers. Any value other than 1 requires `measure` to
  /// be safe to call concurrently.
  std::size_t threads = 1;

  /// When non-empty, completed (n, rep, value) cells stream to this CSV
  /// file as they finish and a rerun resumes from it: cells already in
  /// the file are restored (bit-exact: values round-trip through 17
  /// significant digits) and only missing cells are measured, with the
  /// same derived seeds as an uninterrupted run. The file's header row
  /// records (seed, reps, sizes); resuming with a mismatched grid throws.
  std::string checkpoint_path{};

  /// When > 0, fill ScalingSeries::slope_ci with a stratified 95%
  /// bootstrap CI over this many resamples (200-1000 is typical; see
  /// bootstrap_slope_ci). Skipped when the series ends up with no usable
  /// fit (slope_ci stays replicates == 0): an interval for a slope that
  /// does not exist is not a measurement.
  std::size_t bootstrap_replicates = 0;
};

/// Measures `measure(n, seed)` for every n in `sizes`, `reps` times each
/// and fits the exponent. Replication r of size index i receives
/// derive_stream_seed(seed, mix64(0x9e37 + i), r): the per-size stream tag
/// is tempered through mix64 so that experiments whose seeds differ by a
/// small XOR delta (the old untempered scheme collided e.g. seeds 0x0F
/// apart at adjacent size indices) cannot share RNG streams at shifted
/// indices. `measure` must return a positive value for a point to enter
/// the fit; non-positive values are recorded, and points whose mean ends
/// up non-positive are listed in ScalingSeries::excluded.
///
/// The size x replication grid is fanned out over the parallel executor
/// per ScalingOptions::threads. Replication values are stored and folded
/// in (size, rep) order, so the series is bit-identical for any thread
/// count — and, via the checkpoint, across interrupted/resumed runs.
[[nodiscard]] ScalingSeries measure_scaling(
    const std::vector<std::size_t>& sizes, std::size_t reps,
    std::uint64_t seed,
    const std::function<double(std::size_t n, std::uint64_t seed)>& measure,
    const ScalingOptions& options = {});

/// Scratch-aware variant: `measure` additionally receives a per-worker
/// gen::GenScratch so graph construction inside the measure callback can
/// recycle buffers across the whole size x replication grid (pair it with
/// the scratch-taking generator overloads in gen/). Seeds, fold order and
/// the fitted series are identical to the plain overload.
[[nodiscard]] ScalingSeries measure_scaling(
    const std::vector<std::size_t>& sizes, std::size_t reps,
    std::uint64_t seed,
    const std::function<double(std::size_t n, std::uint64_t seed,
                               gen::GenScratch& scratch)>& measure,
    const ScalingOptions& options = {});

/// Sharded sweep: computes only the grid cells this shard owns and
/// streams them to ScalingOptions::checkpoint_path (required — the
/// checkpoint IS the shard's output; there is no folded series to
/// return). Cell ownership is `(i * reps + r) % shard_count ==
/// shard_index` over the same flattened task order the unsharded run
/// uses, and every cell's seed stays the pure (size, rep) derivation —
/// so k shard processes writing k checkpoints, merged with
/// merge_checkpoints and folded by pointing an unsharded measure_scaling
/// at the merged file, produce a ScalingSeries bit-identical to one
/// process computing the whole grid, at any thread count per shard.
/// Resumable like any checkpointed run: cells already in this shard's
/// file are skipped. `measure` receives a per-worker gen::GenScratch, as
/// in the scratch measure_scaling overload. Returns the number of cells
/// measured by this call.
std::size_t measure_scaling_shard(
    const std::vector<std::size_t>& sizes, std::size_t reps,
    std::uint64_t seed,
    const std::function<double(std::size_t n, std::uint64_t seed,
                               gen::GenScratch& scratch)>& measure,
    const ScalingOptions& options, std::size_t shard_index,
    std::size_t shard_count);

/// Folds k per-shard checkpoint CSVs into one checkpoint at `output`.
/// Every input must carry the identical (seed, reps, sizes) meta row;
/// completed cells are deduplicated by (size_index, rep) — a duplicate
/// must agree exactly (verbatim value string) or the merge throws — and
/// written sorted by (size_index, rep) with values byte-for-byte as the
/// shards recorded them. Pointing measure_scaling at the merged file then
/// replays every cell without recomputation, so the folded series is
/// bit-identical to a single-process run. Torn/repaired trailing rows in
/// the inputs are skipped exactly as resume would skip them. Returns the
/// number of distinct cells in the merged file.
std::size_t merge_checkpoints(const std::vector<std::string>& inputs,
                              const std::string& output);

/// Stratified 95% bootstrap CI of the fitted OLS slope of `series`: each
/// resample draws, within every point, `raw.size()` values with
/// replacement, recomputes the means, and refits the power law over the
/// positive ones. Resamples that leave fewer than two fittable points are
/// dropped. The resampling stream has a fixed seed, independent of the
/// measurement seed, so the CI is a pure function of (series, replicates);
/// measure_scaling calls this when ScalingOptions::bootstrap_replicates >
/// 0, and callers may recompute it from a stored series. Requires
/// series.has_fit(): individual resamples of a no-fit series can still be
/// fittable, and an interval around a slope the series declares
/// unmeasured would be a fabricated error bar (throws
/// std::invalid_argument instead).
[[nodiscard]] stats::BootstrapCi bootstrap_slope_ci(const ScalingSeries& series,
                                                    std::size_t replicates);

/// Geometric grid of sizes from `lo` to `hi` with `count` points, rounded
/// to distinct integers: strictly increasing, starting at `lo` and ending
/// exactly at `hi` (rounded points that would overshoot `hi` by floating-
/// point drift are clamped).
[[nodiscard]] std::vector<std::size_t> geometric_sizes(std::size_t lo,
                                                       std::size_t hi,
                                                       std::size_t count);

}  // namespace sfs::sim

// Nonparametric bootstrap confidence intervals.
//
// Experiments report bootstrap CIs for derived statistics (e.g. fitted
// scaling exponents) where the normal approximation is dubious.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "rng/random.hpp"

namespace sfs::stats {

/// Percentile bootstrap interval for an arbitrary statistic of a sample.
struct BootstrapCi {
  double point = 0.0;  // statistic on the original sample
  double lo = 0.0;     // lower percentile bound
  double hi = 0.0;     // upper percentile bound
  std::size_t replicates = 0;
};

/// Stratified (group-wise) percentile bootstrap for statistics of grouped
/// data — e.g. a scaling exponent fitted over per-size replication
/// samples, where resampling must respect the grouping (resample
/// replications *within* each size, never mix sizes). Each group is
/// resampled with replacement independently, preserving its size, and
/// `statistic` maps the resampled groups to a scalar.
///
/// `statistic` may return a non-finite value for a resample it cannot
/// score (e.g. too few usable groups left to fit a slope); such
/// replicates are dropped from the percentile computation and the
/// returned `replicates` field counts only the finite ones. When fewer
/// than 2 replicates are finite, the interval collapses to
/// [point, point] with replicates == 0.
[[nodiscard]] BootstrapCi bootstrap_grouped_ci(
    std::span<const std::vector<double>> groups,
    const std::function<double(std::span<const std::vector<double>>)>&
        statistic,
    std::size_t replicates, double alpha, rng::Rng& rng);

}  // namespace sfs::stats

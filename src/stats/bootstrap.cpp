#include "stats/bootstrap.hpp"

#include <algorithm>
#include <cmath>

#include "base/check.hpp"
#include "stats/summary.hpp"

namespace sfs::stats {

BootstrapCi bootstrap_grouped_ci(
    std::span<const std::vector<double>> groups,
    const std::function<double(std::span<const std::vector<double>>)>&
        statistic,
    std::size_t replicates, double alpha, rng::Rng& rng) {
  SFS_REQUIRE(!groups.empty(), "bootstrap of empty group set");
  for (const auto& g : groups) {
    SFS_REQUIRE(!g.empty(), "bootstrap group must be non-empty");
  }
  SFS_REQUIRE(replicates >= 2, "need at least 2 bootstrap replicates");
  SFS_REQUIRE(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");

  BootstrapCi ci;
  ci.point = statistic(groups);

  std::vector<std::vector<double>> resampled(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    resampled[g].resize(groups[g].size());
  }
  std::vector<double> stats;
  stats.reserve(replicates);
  for (std::size_t r = 0; r < replicates; ++r) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& src = groups[g];
      for (double& x : resampled[g]) {
        x = src[static_cast<std::size_t>(rng.uniform_index(src.size()))];
      }
    }
    const double s = statistic(resampled);
    if (std::isfinite(s)) stats.push_back(s);
  }
  if (stats.size() < 2) {
    ci.lo = ci.point;
    ci.hi = ci.point;
    ci.replicates = 0;
    return ci;
  }
  ci.replicates = stats.size();
  ci.lo = quantile(stats, alpha / 2.0);
  ci.hi = quantile(stats, 1.0 - alpha / 2.0);
  return ci;
}

}  // namespace sfs::stats

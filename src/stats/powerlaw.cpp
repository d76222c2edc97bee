#include "stats/powerlaw.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/check.hpp"

namespace sfs::stats {
namespace {

constexpr double kAlphaLo = 1.0 + 1e-6;
constexpr double kAlphaHi = 25.0;

/// Sorted copy of the tail data (values >= xmin).
std::vector<std::size_t> tail_of(std::span<const std::size_t> data,
                                 std::size_t xmin) {
  std::vector<std::size_t> tail;
  for (const std::size_t x : data) {
    if (x >= xmin) tail.push_back(x);
  }
  std::sort(tail.begin(), tail.end());
  return tail;
}

/// Mean log-likelihood (up to a constant): -ln ζ(α, xmin) - α * mean_log_x.
double mean_log_likelihood(double alpha, double q, double mean_log_x) {
  return -std::log(hurwitz_zeta(alpha, q)) - alpha * mean_log_x;
}

}  // namespace

double hurwitz_zeta(double s, double q) {
  SFS_REQUIRE(s > 1.0 && q > 0.0, "hurwitz_zeta needs s > 1, q > 0");
  // Direct summation plus an Euler–Maclaurin tail (validated to ~1e-10
  // against reference zeta values in the tests).
  constexpr int kDirect = 64;
  double sum = 0.0;
  for (int k = 0; k < kDirect; ++k) sum += std::pow(q + k, -s);
  const double tail_start = q + kDirect;
  sum += std::pow(tail_start, 1.0 - s) / (s - 1.0);
  sum += 0.5 * std::pow(tail_start, -s);
  sum += s / 12.0 * std::pow(tail_start, -s - 1.0);
  return sum;
}

PowerLawFit fit_power_law_tail(std::span<const std::size_t> data,
                               std::size_t xmin) {
  SFS_REQUIRE(xmin >= 1, "xmin must be >= 1");
  const auto tail = tail_of(data, xmin);
  SFS_REQUIRE(tail.size() >= 2, "need at least 2 tail observations");

  const double n = static_cast<double>(tail.size());
  const double q = static_cast<double>(xmin);
  double mean_log_x = 0.0;
  for (const std::size_t x : tail)
    mean_log_x += std::log(static_cast<double>(x));
  mean_log_x /= n;

  // Ternary search on the strictly concave mean log-likelihood.
  double lo = kAlphaLo;
  double hi = kAlphaHi;
  for (int iter = 0; iter < 200; ++iter) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (mean_log_likelihood(m1, q, mean_log_x) <
        mean_log_likelihood(m2, q, mean_log_x)) {
      lo = m1;
    } else {
      hi = m2;
    }
  }

  PowerLawFit fit;
  fit.xmin = xmin;
  fit.tail_count = tail.size();
  fit.alpha = (lo + hi) / 2.0;
  // Asymptotic stderr from the observed Fisher information:
  // Var(α̂) = 1 / (n * d²/dα² ln ζ(α, xmin)).
  const double h = 1e-4;
  const double d2 =
      (std::log(hurwitz_zeta(fit.alpha + h, q)) -
       2.0 * std::log(hurwitz_zeta(fit.alpha, q)) +
       std::log(hurwitz_zeta(fit.alpha - h, q))) /
      (h * h);
  fit.alpha_stderr = d2 > 0.0 ? 1.0 / std::sqrt(n * d2) : 0.0;
  fit.ks_distance = power_law_ks(data, xmin, fit.alpha);
  return fit;
}

double power_law_ks(std::span<const std::size_t> data, std::size_t xmin,
                    double alpha) {
  SFS_REQUIRE(alpha > 1.0, "KS distance needs alpha > 1");
  const auto tail = tail_of(data, xmin);
  SFS_REQUIRE(!tail.empty(), "no tail observations");
  const double n = static_cast<double>(tail.size());
  const double z_min = hurwitz_zeta(alpha, static_cast<double>(xmin));

  double worst = 0.0;
  std::size_t i = 0;
  while (i < tail.size()) {
    std::size_t j = i;
    while (j < tail.size() && tail[j] == tail[i]) ++j;
    const auto x = static_cast<double>(tail[i]);
    // Model CCDF at x: P(X >= x) = ζ(α, x) / ζ(α, xmin).
    const double model_ge = hurwitz_zeta(alpha, x) / z_min;
    const double emp_ge = (n - static_cast<double>(i)) / n;   // P̂(X >= x)
    const double emp_gt = (n - static_cast<double>(j)) / n;   // P̂(X > x)
    worst = std::max(worst, std::abs(model_ge - emp_ge));
    const double model_gt = hurwitz_zeta(alpha, x + 1.0) / z_min;
    worst = std::max(worst, std::abs(model_gt - emp_gt));
    i = j;
  }
  return worst;
}

PowerLawFit fit_power_law_auto(std::span<const std::size_t> data,
                               std::size_t max_candidates) {
  SFS_REQUIRE(max_candidates >= 1, "need at least one candidate");
  // Candidate xmin values: distinct observed values with enough tail mass.
  std::vector<std::size_t> values(data.begin(), data.end());
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::vector<std::size_t> candidates;
  for (const std::size_t v : values) {
    if (v == 0) continue;
    // Require at least 10 tail points so the MLE is meaningful.
    std::size_t cnt = 0;
    for (const std::size_t x : data)
      if (x >= v) ++cnt;
    if (cnt >= 10) candidates.push_back(v);
  }
  SFS_REQUIRE(!candidates.empty(), "no viable xmin candidate");
  if (candidates.size() > max_candidates) {
    std::vector<std::size_t> sub;
    sub.reserve(max_candidates);
    for (std::size_t i = 0; i < max_candidates; ++i) {
      sub.push_back(candidates[i * candidates.size() / max_candidates]);
    }
    sub.erase(std::unique(sub.begin(), sub.end()), sub.end());
    candidates = std::move(sub);
  }

  PowerLawFit best;
  bool have = false;
  for (const std::size_t xmin : candidates) {
    const auto tail = tail_of(data, xmin);
    if (tail.size() < 2 || tail.front() == tail.back()) continue;
    const PowerLawFit fit = fit_power_law_tail(data, xmin);
    if (fit.alpha <= 1.0) continue;
    if (!have || fit.ks_distance < best.ks_distance) {
      best = fit;
      have = true;
    }
  }
  SFS_REQUIRE(have, "no candidate produced a valid power-law fit");
  return best;
}

}  // namespace sfs::stats

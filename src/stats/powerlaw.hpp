// Discrete power-law tail estimation (Clauset–Shalizi–Newman).
//
// Used by experiment E6 to verify that the Móri and Cooper–Frieze models are
// scale-free (the paper's premise), and to recover the predicted exponent
// 1 + 1/p for the Móri model.
//
// The exponent estimate is the *exact* discrete maximum-likelihood estimate
// (numeric maximization of the zeta-function likelihood), not the popular
// continuous-correction shortcut, which is badly biased for xmin < 6 — and
// degree distributions almost always have xmin in {1, 2, 3}.
#pragma once

#include <cstddef>
#include <span>

namespace sfs::stats {

/// Result of fitting P(D = d) ∝ d^{-alpha} for d >= xmin.
struct PowerLawFit {
  double alpha = 0.0;        // estimated exponent
  double alpha_stderr = 0.0; // asymptotic standard error of alpha
  std::size_t xmin = 1;      // tail threshold used
  std::size_t tail_count = 0;  // observations >= xmin
  double ks_distance = 1.0;  // KS distance between tail data and the model
};

/// Hurwitz zeta ζ(s, q) = Σ_{k≥0} (q+k)^{-s}, for s > 1, q > 0. Exposed
/// because the model CCDF P(X >= x) = ζ(α, x)/ζ(α, xmin) is useful to
/// callers plotting fits.
[[nodiscard]] double hurwitz_zeta(double s, double q);

/// Exact discrete MLE for a power law on {xmin, xmin+1, …}: maximizes
///   L(α) = -n·ln ζ(α, xmin) - α·Σ ln x_i
/// by ternary search (L is strictly concave). Requires at least 2 tail
/// observations, not all equal to xmin... all-equal samples are accepted
/// and produce an alpha at the search ceiling (steepest possible decay).
[[nodiscard]] PowerLawFit fit_power_law_tail(std::span<const std::size_t> data,
                                             std::size_t xmin);

/// Scans xmin over the observed values and returns the fit minimizing the
/// KS distance (the CSN model-selection rule). `max_candidates` caps the
/// number of distinct xmin values tried (evenly subsampled if exceeded).
[[nodiscard]] PowerLawFit fit_power_law_auto(std::span<const std::size_t> data,
                                             std::size_t max_candidates = 50);

/// KS distance between the empirical tail CCDF (data >= xmin) and the
/// theoretical discrete power law with the given alpha.
[[nodiscard]] double power_law_ks(std::span<const std::size_t> data,
                                  std::size_t xmin, double alpha);

}  // namespace sfs::stats

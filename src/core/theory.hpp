// Closed-form predictions collected from the paper and the works it builds
// on. Every benchmark table prints the relevant prediction next to the
// measurement, so EXPERIMENTS.md can record paper-vs-measured explicitly.
#pragma once

#include <cstddef>

namespace sfs::core::theory {

/// Theorem 1 / Theorem 2 (weak model): expected requests are Ω(n^0.5) in
/// the merged Móri graph (any m >= 1, 0 < p <= 1) and in Cooper–Frieze
/// models with 0 < alpha < 1.
[[nodiscard]] constexpr double weak_lower_bound_exponent() { return 0.5; }

/// Theorem 1 (strong model): for Móri p < 1/2, expected requests are
/// Ω(n^{1/2 - p - eps}). Returns max(0, 1/2 - p).
[[nodiscard]] double strong_lower_bound_exponent(double p);

/// Móri (2005): the maximum degree of the Móri tree G_t grows like t^p
/// (with the indegree-based attachment weight p·d + (1-p)).
[[nodiscard]] double mori_max_degree_exponent(double p);

/// Degree-distribution exponent of the Móri tree: since a fixed vertex's
/// indegree grows like t^p, P(D >= d) ~ d^{-1/p} and the pmf exponent is
/// 1 + 1/p. (p = 1/2 recovers the BA-tree exponent 3.)
[[nodiscard]] double mori_degree_distribution_exponent(double p);

/// Lemma 3: with b = a + floor(sqrt(a-1)), P(E_{a,b}) >= e^{-(1-p)}.
[[nodiscard]] double lemma3_bound(double p);

/// The Lemma 3 window end b for a given a (paper ids, a >= 2). Throws
/// std::invalid_argument when b does not fit in std::size_t.
[[nodiscard]] std::size_t lemma3_window_end(std::size_t a);

/// Lemma 1: a set of `equivalent_vertices` vertices, equivalent conditional
/// on an event of probability `event_probability`, forces expected search
/// cost >= |V| * P(E) / 2.
[[nodiscard]] double lemma1_bound(std::size_t equivalent_vertices,
                                  double event_probability);

}  // namespace sfs::core::theory

// Sampling from discrete (weighted) distributions.
//
// Samplers with different trade-offs:
//
//  * AliasTable      — static weights, O(n) build, O(1) sample; behind
//                      BoundedZipf's degree draws (rng/zipf.hpp).
//  * CdfSampler      — static weights, O(n) build, O(log n) sample; cheap to
//                      build; draws Cooper–Frieze's per-step edge counts.
//  * RepeatArray     — the classic preferential-attachment structure: a bag
//                      of vertex ids where each id appears once per unit of
//                      (integer) weight; O(1) append and O(1) uniform pick.
//                      The reference distribution BucketedSampler is
//                      tested against.
//  * BucketedSampler — dynamic integer weights with O(1) update and O(1)
//                      expected sample via power-of-two weight classes;
//                      replaces the O(total-weight) memory of RepeatArray
//                      where weights both grow and shrink (the Overlay join
//                      path under churn).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/random.hpp"

namespace sfs::rng {

/// Walker alias method for sampling i with probability w[i] / sum(w).
/// Weights must be non-negative with a strictly positive sum.
class AliasTable {
 public:
  AliasTable() = default;
  explicit AliasTable(std::span<const double> weights);

  /// Number of outcomes.
  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }
  [[nodiscard]] bool empty() const noexcept { return prob_.empty(); }

  /// Samples an index in [0, size()).
  [[nodiscard]] std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> prob_;        // acceptance probability per slot
  std::vector<std::uint32_t> alias_;  // fallback outcome per slot
};

/// Inverse-CDF sampler over static weights (binary search on the cumulative
/// sum). Also exposes the total weight and per-index probabilities, which
/// the tests use to validate the generators' attachment laws.
class CdfSampler {
 public:
  CdfSampler() = default;
  explicit CdfSampler(std::span<const double> weights);

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  [[nodiscard]] bool empty() const noexcept { return cdf_.empty(); }
  [[nodiscard]] double total_weight() const noexcept {
    return cdf_.empty() ? 0.0 : cdf_.back();
  }
  /// Probability of outcome i.
  [[nodiscard]] double probability(std::size_t i) const;

  [[nodiscard]] std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Bag of ids supporting O(1) "append one unit of weight for id" and O(1)
/// uniform pick; picking uniformly from the bag samples ids proportionally
/// to how many units each has received. This is the exact structure used by
/// preferential attachment (one unit per received edge endpoint).
class RepeatArray {
 public:
  RepeatArray() = default;

  void reserve(std::size_t capacity) { items_.reserve(capacity); }
  void push(std::uint32_t id) { items_.push_back(id); }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

  /// Uniform element of the bag; requires non-empty.
  [[nodiscard]] std::uint32_t sample(Rng& rng) const;

  /// Number of units held by `id` (O(size); for tests only).
  [[nodiscard]] std::size_t count(std::uint32_t id) const noexcept;

 private:
  std::vector<std::uint32_t> items_;
};

/// Dynamic integer-weight sampler with O(1) updates and O(1) expected
/// sampling, organized as power-of-two weight classes ("buckets").
///
/// Ids live in the bucket for their weight's bit width: bucket k holds the
/// ids with weight in [2^k, 2^(k+1)). Sampling draws a point uniformly in
/// [0, total_weight), walks the (at most 64, in practice ~log(max degree))
/// non-empty buckets to find the one the point lands in, then
/// rejection-samples inside the bucket: pick a uniform slot, accept id with
/// probability weight(id) / 2^(k+1) (>= 1/2 by the class invariant, so the
/// expected number of rounds is < 2). The result is exactly
/// weight(i) / total_weight per id — the same distribution as RepeatArray
/// over the same integer weights — without RepeatArray's O(total weight)
/// memory or its append-only restriction.
///
/// Deterministic: the same construction/update sequence plus the same Rng
/// stream reproduces the same samples on every platform. Updates move at
/// most one id between buckets via swap-remove, so they are O(1)
/// unconditionally.
class BucketedSampler {
 public:
  BucketedSampler() = default;
  /// Creates `n` outcomes, all with weight 0.
  explicit BucketedSampler(std::size_t n) { resize(n); }

  /// Number of outcomes (including zero-weight ones).
  [[nodiscard]] std::size_t size() const noexcept { return weight_.size(); }
  [[nodiscard]] std::uint64_t total_weight() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t weight(std::size_t id) const;

  /// Grows to `n` outcomes (new ids get weight 0). Shrinking is not
  /// supported; set weights to 0 instead.
  void resize(std::size_t n);
  /// Appends a new outcome with the given weight; returns its id.
  std::size_t push_back(std::uint64_t w);

  void set_weight(std::size_t id, std::uint64_t w);
  /// Adds delta (may be negative; resulting weight must stay >= 0).
  void add(std::size_t id, std::int64_t delta);

  /// Samples id with probability weight(id) / total_weight(). Requires a
  /// strictly positive total weight.
  [[nodiscard]] std::size_t sample(Rng& rng) const;

 private:
  static constexpr std::uint32_t kNoBucket = 64;
  [[nodiscard]] static std::uint32_t bucket_of(std::uint64_t w) noexcept;
  void place(std::size_t id, std::uint64_t w);
  void remove(std::size_t id);

  struct Bucket {
    std::vector<std::uint32_t> ids;
    std::uint64_t total = 0;  // sum of member weights
  };

  std::array<Bucket, 64> buckets_;
  std::vector<std::uint64_t> weight_;
  std::vector<std::uint32_t> pos_;  // index of id within its bucket's ids
  std::uint64_t total_ = 0;
};

}  // namespace sfs::rng

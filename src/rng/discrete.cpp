#include "rng/discrete.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "base/check.hpp"

namespace sfs::rng {

AliasTable::AliasTable(std::span<const double> weights) {
  const std::size_t n = weights.size();
  SFS_REQUIRE(n > 0, "AliasTable needs at least one outcome");
  double total = 0.0;
  for (const double w : weights) {
    SFS_REQUIRE(w >= 0.0 && std::isfinite(w), "weights must be finite, >= 0");
    total += w;
  }
  SFS_REQUIRE(total > 0.0, "AliasTable needs a positive total weight");

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);

  // Scaled probabilities: mean 1.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i)
    scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }

  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers are numerically 1.
  for (const std::uint32_t i : large) prob_[i] = 1.0;
  for (const std::uint32_t i : small) prob_[i] = 1.0;
}

std::size_t AliasTable::sample(Rng& rng) const {
  SFS_REQUIRE(!empty(), "sampling from an empty AliasTable");
  const auto slot = static_cast<std::size_t>(rng.uniform_index(prob_.size()));
  return rng.uniform() < prob_[slot] ? slot : alias_[slot];
}

CdfSampler::CdfSampler(std::span<const double> weights) {
  SFS_REQUIRE(!weights.empty(), "CdfSampler needs at least one outcome");
  cdf_.reserve(weights.size());
  double acc = 0.0;
  for (const double w : weights) {
    SFS_REQUIRE(w >= 0.0 && std::isfinite(w), "weights must be finite, >= 0");
    acc += w;
    cdf_.push_back(acc);
  }
  SFS_REQUIRE(acc > 0.0, "CdfSampler needs a positive total weight");
}

double CdfSampler::probability(std::size_t i) const {
  SFS_REQUIRE(i < cdf_.size(), "outcome index out of range");
  const double lo = i == 0 ? 0.0 : cdf_[i - 1];
  return (cdf_[i] - lo) / total_weight();
}

std::size_t CdfSampler::sample(Rng& rng) const {
  SFS_REQUIRE(!empty(), "sampling from an empty CdfSampler");
  const double x = rng.uniform() * total_weight();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), x);
  return static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

std::uint32_t RepeatArray::sample(Rng& rng) const {
  SFS_REQUIRE(!items_.empty(), "sampling from an empty RepeatArray");
  return items_[static_cast<std::size_t>(rng.uniform_index(items_.size()))];
}

std::size_t RepeatArray::count(std::uint32_t id) const noexcept {
  return static_cast<std::size_t>(std::count(items_.begin(), items_.end(),
                                             id));
}

std::uint32_t BucketedSampler::bucket_of(std::uint64_t w) noexcept {
  // Bucket k holds weights in [2^k, 2^(k+1)); weight 0 lives in no bucket.
  return w == 0 ? kNoBucket
                : static_cast<std::uint32_t>(std::bit_width(w) - 1);
}

std::uint64_t BucketedSampler::weight(std::size_t id) const {
  SFS_REQUIRE(id < weight_.size(), "outcome index out of range");
  return weight_[id];
}

void BucketedSampler::resize(std::size_t n) {
  SFS_REQUIRE(n >= weight_.size(), "BucketedSampler cannot shrink");
  SFS_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
              "BucketedSampler ids are 32-bit");
  weight_.resize(n, 0);
  pos_.resize(n, 0);
}

std::size_t BucketedSampler::push_back(std::uint64_t w) {
  const std::size_t id = weight_.size();
  resize(id + 1);
  if (w != 0) place(id, w);
  return id;
}

void BucketedSampler::place(std::size_t id, std::uint64_t w) {
  Bucket& b = buckets_[bucket_of(w)];
  pos_[id] = static_cast<std::uint32_t>(b.ids.size());
  b.ids.push_back(static_cast<std::uint32_t>(id));
  b.total += w;
  weight_[id] = w;
  total_ += w;
}

void BucketedSampler::remove(std::size_t id) {
  const std::uint64_t w = weight_[id];
  Bucket& b = buckets_[bucket_of(w)];
  // Swap-remove: the displaced last member inherits the vacated slot.
  const std::uint32_t slot = pos_[id];
  const std::uint32_t last = b.ids.back();
  b.ids[slot] = last;
  pos_[last] = slot;
  b.ids.pop_back();
  b.total -= w;
  weight_[id] = 0;
  total_ -= w;
}

void BucketedSampler::set_weight(std::size_t id, std::uint64_t w) {
  SFS_REQUIRE(id < weight_.size(), "outcome index out of range");
  const std::uint64_t old = weight_[id];
  if (old == w) return;
  if (old != 0 && bucket_of(old) == bucket_of(w)) {
    // Same weight class: adjust totals in place, no membership churn.
    Bucket& b = buckets_[bucket_of(old)];
    b.total += w - old;
    total_ += w - old;
    weight_[id] = w;
    return;
  }
  if (old != 0) remove(id);
  if (w != 0) place(id, w);
}

void BucketedSampler::add(std::size_t id, std::int64_t delta) {
  SFS_REQUIRE(id < weight_.size(), "outcome index out of range");
  const std::uint64_t old = weight_[id];
  SFS_REQUIRE(delta >= 0 ||
                  old >= static_cast<std::uint64_t>(-delta),
              "weight would become negative");
  set_weight(id, old + static_cast<std::uint64_t>(delta));
}

std::size_t BucketedSampler::sample(Rng& rng) const {
  SFS_REQUIRE(total_ > 0, "sampling from an empty BucketedSampler");
  // Land a uniform point in the concatenated bucket totals. Scanning the
  // (<= 64) buckets top-down visits heavy classes first, so the expected
  // number of buckets inspected is O(1) for the skewed weight profiles
  // preferential attachment produces.
  std::uint64_t x = rng.uniform_index(total_);
  for (std::uint32_t k = 64; k-- > 0;) {
    const Bucket& b = buckets_[k];
    if (b.total == 0) continue;
    if (x >= b.total) {
      x -= b.total;
      continue;
    }
    // Rejection inside the class: every member weight is >= 2^k, i.e. at
    // least half the class bound 2^(k+1), so each round accepts with
    // probability > 1/2 and the loop terminates in < 2 expected rounds.
    const std::uint64_t bound = k + 1 >= 64
                                    ? std::numeric_limits<std::uint64_t>::max()
                                    : (std::uint64_t{1} << (k + 1));
    for (;;) {
      const auto slot =
          static_cast<std::size_t>(rng.uniform_index(b.ids.size()));
      const std::uint32_t id = b.ids[slot];
      if (rng.uniform_index(bound) < weight_[id]) return id;
    }
  }
  SFS_CHECK(false, "BucketedSampler: positive total but no non-empty bucket");
  return 0;
}

}  // namespace sfs::rng

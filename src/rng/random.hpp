// Deterministic, seedable random number generation.
//
// Every random procedure in sfsearch takes an explicit seed or an Rng&; the
// library never touches global RNG state, so identical seeds reproduce
// identical graphs and search traces on every platform (we do not rely on
// libstdc++ distribution implementations for anything that affects results).
//
// The engine is xoshiro256** (Blackman & Vigna), seeded through splitmix64,
// which is the standard recommendation for initializing xoshiro state from a
// single 64-bit seed.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "base/check.hpp"

namespace sfs::rng {

/// One step of the splitmix64 sequence. Used for seed expansion and as a
/// cheap stateless hash of a 64-bit value.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless mix of a single value (one splitmix64 step from `x`).
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// xoshiro256** 1.0 engine. Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  explicit Xoshiro256(std::uint64_t seed = 0) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// One xoshiro256** step (inline: it sits on every search probe's and
  /// generator step's draw).
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// Convenience wrapper bundling an engine with the uniform-variate helpers
/// every generator and search algorithm needs. All methods are cheap; the
/// class is freely copyable (copying forks the stream deterministically at
/// the current state).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0) noexcept : engine_(seed) {}

  /// Raw 64 uniform bits.
  [[nodiscard]] std::uint64_t u64() noexcept { return engine_(); }

  /// Uniform integer in [0, n). Requires n > 0 (throws std::logic_error
  /// otherwise). Uses Lemire's unbiased multiply-shift rejection method.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's nearly-divisionless method with rejection for exactness.
    SFS_CHECK(n > 0, "uniform_index(0)");
    std::uint64_t x = u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) {
      const std::uint64_t threshold = (0ULL - n) % n;
      while (low < threshold) {
        x = u64();
        m = static_cast<__uint128_t>(x) * n;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1) with 53 random bits.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// True with probability p (p clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Uniformly chosen element of a non-empty span (throws
  /// std::logic_error on an empty one).
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> items) {
    return items[static_cast<std::size_t>(uniform_index(items.size()))];
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_index(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Samples k distinct indices from [0, n) without replacement
  /// (Floyd's algorithm; order is not uniform, membership is).
  [[nodiscard]] std::vector<std::uint64_t> sample_without_replacement(
      std::uint64_t n, std::uint64_t k);

 private:
  Xoshiro256 engine_;
};

/// Derives the seed for logical stream `stream` of replication `rep`
/// (stream 0 = the graph, further streams = endpoints, per-policy
/// searches, ...). Every stream of every replication is a pure function of
/// (experiment_seed, stream, rep), which is what lets the parallel
/// replication engine (base/parallel.hpp) fan replications out across
/// threads while staying bit-identical to a sequential loop — no RNG
/// state is ever shared between replications. See docs/PERF.md.
[[nodiscard]] std::uint64_t derive_stream_seed(std::uint64_t experiment_seed,
                                               std::uint64_t stream,
                                               std::uint64_t rep) noexcept;

}  // namespace sfs::rng

#include "rng/random.hpp"

namespace sfs::rng {
namespace {

[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

void Xoshiro256::reseed(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
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

double Rng::uniform() noexcept {
  return static_cast<double>(u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::vector<std::uint64_t> Rng::sample_without_replacement(std::uint64_t n,
                                                           std::uint64_t k) {
  SFS_REQUIRE(k <= n, "cannot sample more items than the population");
  // Floyd's algorithm: O(k) expected time, O(k) memory.
  std::vector<std::uint64_t> result;
  result.reserve(static_cast<std::size_t>(k));
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = uniform_index(j + 1);
    bool seen = false;
    for (const std::uint64_t v : result) {
      if (v == t) {
        seen = true;
        break;
      }
    }
    result.push_back(seen ? j : t);
  }
  return result;
}

std::uint64_t derive_stream_seed(std::uint64_t experiment_seed,
                                 std::uint64_t stream,
                                 std::uint64_t rep) noexcept {
  // The stream tag enters by XOR, so stream 0 (the graph) keeps the
  // historical per-rep seeds, which are load-bearing for reproducing
  // recorded experiment tables.
  return mix64(experiment_seed ^ stream ^ mix64(0x5eedULL + rep));
}

}  // namespace sfs::rng

#include "rng/random.hpp"

namespace sfs::rng {

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

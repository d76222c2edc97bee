#include "rng/philox.hpp"

namespace sfs::rng {

namespace {

// Multiplication constants and Weyl key increments from the Philox paper
// (the same values shipped by Random123's philox4x64).
constexpr std::uint64_t kMul0 = 0xD2E7470EE14C6C93ULL;
constexpr std::uint64_t kMul1 = 0xCA5A826395121157ULL;
constexpr std::uint64_t kWeyl0 = 0x9E3779B97F4A7C15ULL;  // golden ratio
constexpr std::uint64_t kWeyl1 = 0xBB67AE8584CAA73BULL;  // sqrt(3) - 1

inline std::uint64_t mulhilo(std::uint64_t a, std::uint64_t b,
                             std::uint64_t& hi) noexcept {
  const unsigned __int128 p =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  hi = static_cast<std::uint64_t>(p >> 64);
  return static_cast<std::uint64_t>(p);
}

}  // namespace

std::array<std::uint64_t, 4> Philox4x64::block_at(
    std::uint64_t block) const noexcept {
  std::array<std::uint64_t, 4> c{block, 0, 0, 0};
  std::uint64_t k0 = key_[0];
  std::uint64_t k1 = key_[1];
  for (unsigned round = 0; round < kRounds; ++round) {
    std::uint64_t hi0 = 0;
    std::uint64_t hi1 = 0;
    const std::uint64_t lo0 = mulhilo(kMul0, c[0], hi0);
    const std::uint64_t lo1 = mulhilo(kMul1, c[2], hi1);
    c = {hi1 ^ c[1] ^ k0, lo1, hi0 ^ c[3] ^ k1, lo0};
    k0 += kWeyl0;
    k1 += kWeyl1;
  }
  return c;
}

}  // namespace sfs::rng

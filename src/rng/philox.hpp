// Counter-based random number generation (Philox).
//
// Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
// easy as 1, 2, 3", SC'11) is a bijective keyed permutation of a 256-bit
// counter. Unlike the sequential xoshiro engine in random.hpp, the block at
// counter k is a pure function of (key, k), which gives two properties the
// counter seed derivation (rng::audited_counter_seed, stream_audit.hpp)
// wants:
//
//  * O(1) random access: the block at any counter costs one block
//    encryption, not k advances, so per-index stream seeds need no
//    per-index derivation state.
//  * keyed independence: streams for different (seed, stream tag) pairs use
//    different keys, so they are decorrelated by construction rather than
//    by tempering the seed.
//
// Statistical quality: Philox4x64-10 passes BigCrush/PractRand (it is the
// reference counter-based generator shipped by Random123, NumPy and JAX).
//
// Only the low 64 bits of the counter are addressable; the remaining 192
// counter bits are zero and reserved for future stream substructure.
#pragma once

#include <array>
#include <cstdint>

namespace sfs::rng {

/// Philox4x64-10 keyed block cipher over a 64-bit block counter.
class Philox4x64 {
 public:
  /// Number of bump-key rounds (the standard, crush-resistant choice).
  static constexpr unsigned kRounds = 10;

  explicit Philox4x64(std::uint64_t key0 = 0, std::uint64_t key1 = 0) noexcept
      : key_{key0, key1} {}

  /// Encrypts the 4-word block at block index `block`. Stateless: the same
  /// (key, block) always gives the same words.
  [[nodiscard]] std::array<std::uint64_t, 4> block_at(
      std::uint64_t block) const noexcept;

 private:
  std::array<std::uint64_t, 2> key_;
};

}  // namespace sfs::rng

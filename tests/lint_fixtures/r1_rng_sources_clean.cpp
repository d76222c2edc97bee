// SFS_LINT_FIXTURE_PATH: src/sim/fixture_rng_clean.cpp
// Fixture: disciplined randomness plus every comment/string decoy.
// Mentioning std::mt19937, rand(), or std::random_device in a comment
// must NOT fire — rules run on comment- and literal-stripped text.
#include <chrono>
#include <string>

#include "rng/random.hpp"
#include "rng/stream_audit.hpp"

double fixture() {
  sfs::rng::Rng rng(sfs::rng::audited_stream_seed(17, 0, 0));
  const std::string decoy = "std::mt19937 rand() time(nullptr)";
  /* std::random_device in a block comment is also fine */
  const auto t0 = std::chrono::steady_clock::now();  // timing, not entropy
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() +
         static_cast<double>(rng.next_u64() % 3) + decoy.size();
}

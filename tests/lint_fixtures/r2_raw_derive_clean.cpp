// SFS_LINT_FIXTURE_PATH: bench/experiments/fixture_sweep_clean.cpp
// Fixture: the sanctioned route — audited_stream_seed. A
// derive_stream_seed mention in this comment is not a call.
#include "rng/stream_audit.hpp"

std::uint64_t fixture(std::uint64_t seed, std::uint64_t rep) {
  return sfs::rng::audited_stream_seed(seed, 0x1234, rep);
}

// Tests for the two stream-seed derivations (rng/stream_audit.hpp): the
// mix chain `audited_stream_seed` that sweeps use, and the Philox word
// `audited_counter_seed` that QueryEngine uses.
#include "rng/stream_audit.hpp"

#include <gtest/gtest.h>

#include <set>

#include "rng/philox.hpp"
#include "rng/random.hpp"

namespace {

using sfs::rng::audited_counter_seed;
using sfs::rng::audited_stream_seed;
using sfs::rng::StreamAudit;

TEST(AuditedCounterSeed, MatchesPhiloxBlockWord) {
  // The contract: stream seed `index` is word 0 of the Philox block at
  // counter `index` under key (seed, stream) — seekable by construction.
  const std::uint64_t seed = 0xFEEDULL;
  const std::uint64_t stream = 0x10ULL;
  const sfs::rng::Philox4x64 cipher(seed, stream);
  for (std::uint64_t index : {0ULL, 1ULL, 2ULL, 1000ULL, 123456789ULL}) {
    EXPECT_EQ(audited_counter_seed(seed, stream, index),
              cipher.block_at(index)[0]);
  }
}

TEST(AuditedCounterSeed, OrderIndependent) {
  // No hidden sequential state: deriving index 10^6 first and index 0
  // second gives the same values as the other order.
  const std::uint64_t high = audited_counter_seed(7, 9, 1000000);
  const std::uint64_t low = audited_counter_seed(7, 9, 0);
  EXPECT_EQ(audited_counter_seed(7, 9, 0), low);
  EXPECT_EQ(audited_counter_seed(7, 9, 1000000), high);
}

TEST(AuditedCounterSeed, DecorrelatesFromMixChainAndAcrossStreams) {
  // Distinct (derivation, seed, stream, index) combinations should
  // essentially never collide; any systematic overlap would correlate
  // streams the statistics assume independent.
  std::set<std::uint64_t> seen;
  std::size_t derivations = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (std::uint64_t tag = 0; tag < 4; ++tag) {
      const std::uint64_t stream = sfs::rng::mix64(tag);
      for (std::uint64_t index = 0; index < 32; ++index) {
        seen.insert(audited_stream_seed(seed, stream, index));
        seen.insert(audited_counter_seed(seed, stream, index));
        derivations += 2;
      }
    }
  }
  EXPECT_EQ(seen.size(), derivations);
}

TEST(StreamDerivations, BothRecordInTheAudit) {
  StreamAudit& audit = StreamAudit::instance();
  audit.reset();
  audit.set_enabled(true);
  (void)audited_stream_seed(11, 22, 0);
  (void)audited_stream_seed(11, 22, 1);
  (void)audited_counter_seed(11, 23, 0);
  (void)audited_counter_seed(11, 23, 1);
  EXPECT_EQ(audit.recorded_count(), 4u);
  // Replaying the same derivations is idempotent for both.
  (void)audited_stream_seed(11, 22, 0);
  (void)audited_counter_seed(11, 23, 0);
  EXPECT_EQ(audit.recorded_count(), 4u);
  audit.set_enabled(false);
  audit.reset();
}

}  // namespace

// Tests for the versioned stream-plan derivations (rng/stream_plan.hpp).
#include "rng/stream_plan.hpp"

#include <gtest/gtest.h>

#include <set>

#include "rng/philox.hpp"
#include "rng/random.hpp"
#include "rng/stream_audit.hpp"

namespace {

using sfs::rng::Philox4x64;
using sfs::rng::StreamAudit;
using sfs::rng::StreamPlan;
using sfs::rng::StreamPlanVersion;

TEST(StreamPlan, VersionNumbersAreStable) {
  // Artifacts record the plan as its enum value (perfbench's manifest
  // among them); these integers are frozen.
  EXPECT_EQ(static_cast<std::uint32_t>(StreamPlanVersion::kLegacy), 1u);
  EXPECT_EQ(static_cast<std::uint32_t>(StreamPlanVersion::kCounter), 2u);
}

TEST(StreamPlan, LegacyMatchesDeriveStreamSeedExactly) {
  // v1 is frozen: it must reproduce the historical mix chain bit for bit,
  // including the load-bearing untempered stream 0 (graph stream).
  for (const std::uint64_t seed : {0ULL, 1ULL, 0x1A26E1ULL}) {
    const std::uint64_t tags[] = {0ULL, sfs::rng::mix64(0xabcdefULL),
                                  sfs::rng::mix64(0x10e57ULL)};
    for (const std::uint64_t tag : tags) {
      const StreamPlan plan(seed, tag, StreamPlanVersion::kLegacy);
      for (std::uint64_t index = 0; index < 16; ++index) {
        EXPECT_EQ(plan.stream_seed(index),
                  // SFS_LINT_ALLOW(raw-derive): pins kLegacy plan == frozen raw derivation chain
                  sfs::rng::derive_stream_seed(seed, tag, index));
      }
    }
  }
}

TEST(StreamPlan, CounterMatchesPhiloxBlockWord) {
  // v2's contract: stream seed `index` is word 0 of the Philox block at
  // counter `index` under key (seed, tag) — seekable by construction.
  const std::uint64_t seed = 0xFEEDULL;
  const std::uint64_t tag = 0x10ULL;
  const StreamPlan plan(seed, tag, StreamPlanVersion::kCounter);
  const Philox4x64 cipher(seed, tag);
  for (std::uint64_t index : {0ULL, 1ULL, 2ULL, 1000ULL, 123456789ULL}) {
    EXPECT_EQ(plan.stream_seed(index), cipher.block_at(index)[0]);
  }
}

TEST(StreamPlan, CounterSeedsAreOrderIndependent) {
  // No hidden sequential state: deriving index 10^6 first and index 0
  // second gives the same values as the other order or a fresh plan.
  const StreamPlan a(7, 9, StreamPlanVersion::kCounter);
  const std::uint64_t high = a.stream_seed(1000000);
  const std::uint64_t low = a.stream_seed(0);
  const StreamPlan b(7, 9, StreamPlanVersion::kCounter);
  EXPECT_EQ(b.stream_seed(0), low);
  EXPECT_EQ(b.stream_seed(1000000), high);
}

TEST(StreamPlan, VersionsAndStreamsDecorrelate) {
  // Distinct (version, seed, tag, index) combinations should essentially
  // never collide; any systematic overlap would correlate streams the
  // statistics assume independent.
  std::set<std::uint64_t> seen;
  std::size_t derivations = 0;
  for (const auto version :
       {StreamPlanVersion::kLegacy, StreamPlanVersion::kCounter}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      for (std::uint64_t tag = 0; tag < 4; ++tag) {
        const StreamPlan plan(seed, sfs::rng::mix64(tag), version);
        for (std::uint64_t index = 0; index < 32; ++index) {
          seen.insert(plan.stream_seed(index));
          ++derivations;
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), derivations);
}

TEST(StreamPlan, BothVersionsRecordInTheAudit) {
  StreamAudit& audit = StreamAudit::instance();
  audit.reset();
  audit.set_enabled(true);
  const StreamPlan v1(11, 22, StreamPlanVersion::kLegacy);
  const StreamPlan v2(11, 23, StreamPlanVersion::kCounter);
  (void)v1.stream_seed(0);
  (void)v1.stream_seed(1);
  (void)v2.stream_seed(0);
  (void)v2.stream_seed(1);
  EXPECT_EQ(audit.recorded_count(), 4u);
  // Replaying the same derivations is idempotent, exactly like v1 always
  // was through audited_stream_seed.
  (void)v1.stream_seed(0);
  (void)v2.stream_seed(0);
  EXPECT_EQ(audit.recorded_count(), 4u);
  audit.set_enabled(false);
  audit.reset();
}

}  // namespace

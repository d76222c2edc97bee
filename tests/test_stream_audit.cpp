// Tests for the RNG stream-derivation audit (rng/stream_audit.hpp).
#include "rng/stream_audit.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>

#include "core/equivalence.hpp"
#include "gen/mori.hpp"
#include "rng/random.hpp"
#include "sim/scaling.hpp"
#include "sim/sweep.hpp"

namespace {

using sfs::rng::audited_stream_seed;
using sfs::rng::StreamAudit;
using sfs::rng::StreamTriple;

// The audit is process-global; each test starts it from a clean slate and
// leaves it disabled so other tests (and the harness call sites they
// exercise) are unaffected.
class StreamAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StreamAudit::instance().reset();
    StreamAudit::instance().set_enabled(true);
  }
  void TearDown() override {
    StreamAudit::instance().set_enabled(false);
    StreamAudit::instance().reset();
  }
};

TEST_F(StreamAuditTest, RecordsDistinctDerivations) {
  const std::uint64_t a = audited_stream_seed(1, 0, 0);
  const std::uint64_t b = audited_stream_seed(1, 0, 1);
  const std::uint64_t c = audited_stream_seed(2, 7, 0);
  // SFS_LINT_ALLOW(raw-derive): asserts audited_stream_seed delegates to the raw derivation
  EXPECT_EQ(a, sfs::rng::derive_stream_seed(1, 0, 0));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(StreamAudit::instance().recorded_count(), 3u);
}

TEST_F(StreamAuditTest, SameTripleIsIdempotent) {
  // Checkpoint-resumed sweeps re-derive completed cells' seeds; replaying
  // the identical mapping must not trip the collision check.
  (void)audited_stream_seed(5, 3, 2);
  (void)audited_stream_seed(5, 3, 2);
  (void)audited_stream_seed(5, 3, 2);
  EXPECT_EQ(StreamAudit::instance().recorded_count(), 1u);
}

TEST_F(StreamAuditTest, CollisionFailsFast) {
  StreamAudit& audit = StreamAudit::instance();
  audit.record(StreamTriple{1, 2, 3}, 42);
  // Same derived seed from a different triple: exactly the bug class the
  // audit exists to catch.
  EXPECT_THROW(audit.record(StreamTriple{9, 9, 9}, 42), std::logic_error);
  // The same mapping again stays fine.
  audit.record(StreamTriple{1, 2, 3}, 42);
}

TEST_F(StreamAuditTest, DisabledWrapperRecordsNothing) {
  StreamAudit::instance().set_enabled(false);
  (void)audited_stream_seed(1, 0, 0);
  EXPECT_EQ(StreamAudit::instance().recorded_count(), 0u);
}

TEST_F(StreamAuditTest, DumpEmitsSortedCsv) {
  StreamAudit& audit = StreamAudit::instance();
  audit.record(StreamTriple{1, 2, 3}, 500);
  audit.record(StreamTriple{4, 5, 6}, 100);
  std::ostringstream os;
  audit.dump(os);
  EXPECT_EQ(os.str(),
            "seed,stream,rep,derived_seed\n"
            "4,5,6,100\n"
            "1,2,3,500\n");
}

TEST_F(StreamAuditTest, ScalingSweepAuditsCleanly) {
  // A real sweep under the audit: every (size, rep) cell derivation is
  // recorded, and the tempered per-size tags produce no collisions.
  const auto series = sfs::sim::measure_scaling(
      {16, 32, 64}, 4, 0xA0D17,
      [](std::size_t n, std::uint64_t) { return static_cast<double>(n); });
  ASSERT_TRUE(series.has_fit());
  EXPECT_EQ(StreamAudit::instance().recorded_count(), 3u * 4u);
}

TEST_F(StreamAuditTest, PortfolioSweepAuditsCleanly) {
  using sfs::graph::Graph;
  using sfs::rng::Rng;
  const std::size_t reps = 3;
  const auto cost = sfs::sim::measure_portfolio({
      .factory =
          [](Rng& rng) {
            return sfs::gen::merged_mori_graph(64, 1,
                                               sfs::gen::MoriParams{0.5}, rng);
          },
      .endpoints = sfs::sim::oldest_to_newest(),
      .reps = reps,
      .seed = 0x577E,
  });
  ASSERT_FALSE(cost.policies.empty());
  // Streams per replication: graph + endpoints + one per policy.
  EXPECT_EQ(StreamAudit::instance().recorded_count(),
            reps * (2 + cost.policies.size()));
}

TEST_F(StreamAuditTest, EventEstimateAuditsEveryReplication) {
  // core/ seeds each replication through the audited derivation too.
  const std::size_t reps = 7;
  const auto est =
      sfs::core::estimate_event_probability(0.5, 3, 6, reps, 0xE4);
  EXPECT_EQ(est.reps, reps);
  EXPECT_EQ(StreamAudit::instance().recorded_count(), reps);
}

TEST_F(StreamAuditTest, NestedHarnessesShareOneCleanAuditTable) {
  // A scaling sweep whose measure runs a portfolio inside — the composed
  // stream plan of both harnesses must stay collision-free.
  using sfs::rng::Rng;
  const auto series = sfs::sim::measure_scaling(
      {32, 64}, 2, 0xE1,
      [](std::size_t n, std::uint64_t seed) {
        const auto cost = sfs::sim::measure_portfolio({
            .factory =
                [n](Rng& rng) {
                  return sfs::gen::merged_mori_graph(
                      n, 1, sfs::gen::MoriParams{0.5}, rng);
                },
            .endpoints = sfs::sim::oldest_to_newest(),
            .seed = seed,
        });
        return cost.best_policy().requests.mean;
      });
  ASSERT_TRUE(series.has_fit());
  EXPECT_GT(StreamAudit::instance().recorded_count(), 4u);
}

}  // namespace

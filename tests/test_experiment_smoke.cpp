// Catalog-wide smoke: every experiment of the table runs to completion
// under the tiny --quick budget with the RNG stream audit enabled. Honors
// SFS_THREADS, so the CI matrix exercises the quick paths at 1 and 4
// workers.
#include <gtest/gtest.h>

#include <sstream>

#include "experiments/catalog.hpp"
#include "rng/stream_audit.hpp"
#include "sim/experiment.hpp"

namespace {

TEST(ExperimentSmoke, EveryRegisteredExperimentRunsQuick) {
  // Audit every seed derivation the quick runs perform: two distinct
  // (seed, stream, rep) triples colliding on one derived seed is the
  // correlated-stream bug class the harnesses guard against.
  sfs::rng::StreamAudit::instance().set_enabled(true);

  const auto experiments = sfs::bench::experiments();
  ASSERT_EQ(experiments.size(), 13u);
  for (const auto& spec : experiments) {
    std::ostringstream console;
    sfs::sim::ResultsEmitter emitter(console);
    sfs::sim::ExperimentContext ctx{&spec, {}, &emitter};
    ctx.options.quick = true;
    int code = -1;
    ASSERT_NO_THROW(code = spec.run(ctx)) << "experiment " << spec.name;
    EXPECT_EQ(code, 0) << "experiment " << spec.name
                       << " failed under --quick; output:\n"
                       << console.str();
    EXPECT_FALSE(console.str().empty()) << spec.name;
  }
}

}  // namespace

// SFS_LINT_FIXTURE_PATH: bench/experiments/fixture_r6_caller.cpp
// Fixture, two TUs (each SFS_LINT_FIXTURE_PATH marker starts one): both
// define a file-local `report`. This one draws from the seed its run-fn
// derives. The other draws nothing, and its run-fn passes a literal.
// Internal-linkage functions are keyed by (file, name), so that caller
// must not reach this draw.
#include "rng/random.hpp"
#include "sim/experiment.hpp"

namespace {

double report(std::uint64_t seed) {
  sfs::rng::Rng rng(seed);
  return rng.uniform();
}

int run_caller(sfs::sim::ExperimentContext& ctx) {
  return report(ctx.stream_seed("report")) > 0.0 ? 0 : 1;
}

}  // namespace

sfs::sim::ExperimentSpec fixture_caller_spec() {
  return {.name = "fixture_r6_caller", .run = run_caller};
}

// SFS_LINT_FIXTURE_PATH: bench/experiments/fixture_r6_drawless.cpp
#include "sim/experiment.hpp"

static double report(std::uint64_t seed) {
  return static_cast<double>(seed % 7);
}

static int run_drawless(sfs::sim::ExperimentContext& ctx) {
  (void)ctx;
  return report(17) > 0.0 ? 0 : 1;
}

sfs::sim::ExperimentSpec fixture_drawless_spec() {
  return {.name = "fixture_r6_drawless", .run = run_drawless};
}

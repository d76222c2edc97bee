// SFS_LINT_FIXTURE_PATH: bench/experiments/fixture_r6_raw.cpp
// Fixture, two TUs (each SFS_LINT_FIXTURE_PATH marker starts one): both
// define a file-local `report`. This one seeds its Rng from a literal;
// the other derives its seed. Internal-linkage functions are keyed by
// (file, name), so the other TU's sanction must not clear this draw.
#include "rng/random.hpp"
#include "sim/experiment.hpp"

namespace {

double report(sfs::sim::ExperimentContext& ctx) {
  sfs::rng::Rng rng(0x5EED);
  (void)ctx;
  return rng.uniform();
}

int run_raw(sfs::sim::ExperimentContext& ctx) {
  return report(ctx) > 0.0 ? 0 : 1;
}

}  // namespace

sfs::sim::ExperimentSpec fixture_raw_spec() {
  return {.name = "fixture_r6_raw", .run = run_raw};
}

// SFS_LINT_FIXTURE_PATH: bench/experiments/fixture_r6_derived.cpp
#include "rng/random.hpp"
#include "sim/experiment.hpp"

static double report(sfs::sim::ExperimentContext& ctx) {
  sfs::rng::Rng rng(ctx.stream_seed("report"));
  return rng.uniform();
}

static int run_derived(sfs::sim::ExperimentContext& ctx) {
  return report(ctx) > 0.0 ? 0 : 1;
}

sfs::sim::ExperimentSpec fixture_derived_spec() {
  return {.name = "fixture_r6_derived", .run = run_derived};
}

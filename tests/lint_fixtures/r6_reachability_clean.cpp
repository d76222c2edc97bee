// SFS_LINT_FIXTURE_PATH: bench/experiments/fixture_r6_clean.cpp
// Fixture: the same shape as the violation twin, but every root -> draw
// path traverses a sanctioned derivation — the run-fn derives the
// helper's seed via ctx.stream_seed.  The second helper also draws
// without a sanction but is unreachable from any experiment run-fn, so
// it must stay silent (the rule is about experiment paths, not every
// Rng in the tree).
#include "rng/random.hpp"
#include "sim/experiment.hpp"

using sfs::rng::Rng;

double helper_cost(std::uint64_t seed) {
  Rng rng(seed);
  return rng.unit_double();
}

double unreachable_probe(std::uint64_t seed) {
  Rng rng(seed);
  return rng.unit_double();
}

int run_fixture(sfs::sim::ExperimentContext& ctx) {
  double acc = 0.0;
  for (std::uint64_t rep = 0; rep < 4; ++rep) {
    acc += helper_cost(ctx.stream_seed("cost", rep));
  }
  return acc > 0.0 ? 0 : 1;
}

sfs::sim::ExperimentSpec fixture_spec() {
  return {
      .name = "fixture_r6_clean",
      .run = run_fixture,
  };
}

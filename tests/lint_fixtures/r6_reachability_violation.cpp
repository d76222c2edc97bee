// SFS_LINT_FIXTURE_PATH: bench/experiments/fixture_r6.cpp
// Fixture: the experiment run-fn hands its helper a home-brewed seed; the
// helper constructs an Rng with no audited_stream_seed or stream_seed
// call on the root -> draw path, so rng-reachability fires at
// the construction (cross-TU call-graph rule, single-TU here).
#include "rng/random.hpp"
#include "sim/experiment.hpp"

using sfs::rng::Rng;

double helper_cost(std::uint64_t seed) {
  Rng rng(seed);
  return rng.unit_double();
}

int run_fixture(sfs::sim::ExperimentContext& ctx) {
  double acc = 0.0;
  for (std::uint64_t rep = 0; rep < 4; ++rep) {
    acc += helper_cost(rep * 2654435761ULL);
  }
  (void)ctx;
  return acc > 0.0 ? 0 : 1;
}

sfs::sim::ExperimentSpec fixture_spec() {
  return {
      .name = "fixture_r6",
      .run = run_fixture,
  };
}

// SFS_LINT_FIXTURE_PATH: src/graph/fixture_layering.hpp
// Fixture: a graph/ header reaching UP the layer DAG into sim/ (layering
// violation — graph is layer 2, sim is layer 6), plus an unsorted
// quoted-include run (base sorts before rng; --fix restores the order,
// but the upward include needs a real design fix).
#pragma once

#include "rng/random.hpp"
#include "base/check.hpp"
#include "sim/sweep.hpp"

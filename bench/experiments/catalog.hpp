// The sfs_bench experiment catalog. Each bench/experiments/*.cpp defines
// one function in sfs::bench that returns its experiment's spec, and
// catalog.cpp lists them in catalog order, the order `sfs_bench --list`
// and `--list-names` print: the paper claims e1-e12, the ablations a1-a3,
// then the churn study d1_churn.
#pragma once

#include <span>

#include "sim/experiment.hpp"

namespace sfs::bench {

/// Every experiment, in catalog order.
[[nodiscard]] std::span<const sim::ExperimentSpec> experiments();

}  // namespace sfs::bench

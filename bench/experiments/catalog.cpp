#include "experiments/catalog.hpp"

namespace sfs::bench {

sim::ExperimentSpec e1_spec();
sim::ExperimentSpec e2_spec();
sim::ExperimentSpec e3_spec();
sim::ExperimentSpec e4_spec();
sim::ExperimentSpec e5_spec();
sim::ExperimentSpec e6_spec();
sim::ExperimentSpec e9_spec();
sim::ExperimentSpec e10_spec();
sim::ExperimentSpec e12_spec();
sim::ExperimentSpec a1_spec();
sim::ExperimentSpec a2_spec();
sim::ExperimentSpec a3_spec();
sim::ExperimentSpec d1_churn_spec();

std::span<const sim::ExperimentSpec> experiments() {
  static const sim::ExperimentSpec table[] = {
      e1_spec(),  e2_spec(), e3_spec(), e4_spec(),
      e5_spec(),  e6_spec(), e9_spec(), e10_spec(),
      e12_spec(), a1_spec(), a2_spec(), a3_spec(),
      d1_churn_spec(),
  };
  return table;
}

}  // namespace sfs::bench

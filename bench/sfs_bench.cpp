// sfs_bench — the one experiment binary. Every experiment of the catalog
// (bench/experiments/catalog.hpp) is compiled into it:
//
//   sfs_bench --list                    catalog of experiments
//   sfs_bench --list-names              bare names (CI loops over these)
//   sfs_bench --run e1 --quick          one experiment, smoke budget
//   sfs_bench --run e1 --large --checkpoint e1.csv --json e1.jsonl
//
// See sim/experiment.hpp for the shared flag vocabulary and
// docs/EXPERIMENTS.md for the experiment catalog.
#include "experiments/catalog.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  return sfs::sim::experiment_main(argc, argv, sfs::bench::experiments());
}

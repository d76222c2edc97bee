// M3 — parallel replication engine: sequential vs parallel portfolio
// throughput, and a bit-identity audit of the deterministic fan-out.
//
// For each n, runs the full weak portfolio (10 policies) over `reps`
// freshly generated merged Mori graphs twice: once with threads=1 (the
// sequential engine) and once with the parallel worker count (--threads,
// default the shared pool). Reports throughput in units of
// "graphs+searches per second" (each replication builds 1 graph and runs
// 10 searches) and the parallel speedup, then verifies the two
// PortfolioCost results are bit-identical — the per-rep seed derivation
// plus ordered fold make the parallel path a pure performance transform.
//
// Expected: speedup approaching the core count on multi-core hosts;
// exactly 1x on a single-core host, still bit-identical.
#include <iostream>
#include <string>
#include <vector>

#include "base/parallel.hpp"
#include "gen/mori.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/table.hpp"

namespace {

using sfs::graph::Graph;
using sfs::rng::Rng;
using sfs::sim::ExperimentContext;
using sfs::sim::PortfolioCost;

bool bit_identical(const PortfolioCost& a, const PortfolioCost& b) {
  if (a.best != b.best || a.policies.size() != b.policies.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.policies.size(); ++i) {
    const auto& pa = a.policies[i];
    const auto& pb = b.policies[i];
    if (pa.name != pb.name || pa.found_fraction != pb.found_fraction ||
        pa.median_requests != pb.median_requests ||
        pa.p90_requests != pb.p90_requests ||
        pa.requests.mean != pb.requests.mean ||
        pa.requests.stddev != pb.requests.stddev ||
        pa.requests.min != pb.requests.min ||
        pa.requests.max != pb.requests.max ||
        pa.raw_requests.mean != pb.raw_requests.mean ||
        pa.raw_requests.stddev != pb.raw_requests.stddev) {
      return false;
    }
  }
  return true;
}

struct Measurement {
  PortfolioCost cost;
  double wall_s = 0.0;
  double throughput = 0.0;  // graphs+searches per second
};

Measurement run_once(std::size_t n, std::size_t reps, std::uint64_t seed,
                     std::size_t threads) {
  const std::size_t m = 2;
  const double p = 0.5;
  sfs::sim::WallTimer timer;
  Measurement out;
  out.cost = sfs::sim::measure_portfolio({
      .factory =
          [n, m, p](Rng& rng) {
            return sfs::gen::merged_mori_graph(n, m, sfs::gen::MoriParams{p},
                                               rng);
          },
      .endpoints = sfs::sim::oldest_to_newest(),
      .reps = reps,
      .seed = seed,
      .budget = {.max_raw_requests = 40 * n},
      .threads = threads,
  });
  out.wall_s = timer.seconds();
  const std::size_t policies = out.cost.policies.size();
  out.throughput =
      static_cast<double>(reps * (1 + policies)) / out.wall_s;
  return out;
}

int run_m3(ExperimentContext& ctx) {
  // The whole point of m3 is sequential-vs-parallel; an explicit
  // --threads 1 would compare two identical sequential runs and report
  // a vacuous PASS.
  if (ctx.options.has_threads && ctx.options.threads == 1) {
    std::cerr << "m3 compares the sequential engine against a parallel "
                 "leg; --threads 1 makes the comparison vacuous (pass 0 "
                 "for the shared pool, or >= 2)\n";
    return 2;
  }
  const auto sizes = ctx.sizes_or(
      ctx.options.quick ? std::vector<std::size_t>{2000, 5000}
                        : std::vector<std::size_t>{10000, 30000, 100000});
  const std::size_t reps = ctx.reps_or(ctx.options.quick ? 4 : 8);
  const std::size_t par_threads = ctx.threads();
  const std::size_t workers = sfs::base::resolve_worker_count(par_threads);
  ctx.console() << "M3: parallel replication engine, weak portfolio on "
                   "merged Mori graphs (m=2, p=0.5), "
                << reps << " reps, " << workers << " worker(s)\n\n";

  sfs::sim::Table t("sequential vs parallel portfolio measurement",
                    {"n", "seq wall s", "par wall s", "seq thru",
                     "par thru", "speedup", "identical"});
  bool all_identical = true;
  for (const std::size_t n : sizes) {
    const std::uint64_t seed = ctx.stream_seed("n=" + std::to_string(n));
    const Measurement seq = run_once(n, reps, seed, /*threads=*/1);
    const Measurement par = run_once(n, reps, seed, par_threads);
    const bool same = bit_identical(seq.cost, par.cost);
    all_identical = all_identical && same;
    const double speedup = seq.wall_s / par.wall_s;
    t.row()
        .integer(n)
        .num(seq.wall_s, 3)
        .num(par.wall_s, 3)
        .num(seq.throughput, 1)
        .num(par.throughput, 1)
        .num(speedup, 2)
        .cell(same ? "yes" : "NO");
    ctx.emitter->emit_point("m3_parallel_sweep_seq", n, reps,
                            seq.throughput, 0.0, seq.wall_s);
    ctx.emitter->emit_point("m3_parallel_sweep_par", n, reps,
                            par.throughput, 0.0, par.wall_s);
  }
  t.print(ctx.console());
  ctx.console() << "\nbit-identical across thread counts: "
                << (all_identical ? "PASS" : "FAIL") << '\n';
  return all_identical ? 0 : 1;
}

const sfs::sim::ExperimentRegistrar reg_m3({
    .name = "m3",
    .title = "Parallel replication engine: speedup + bit-identity audit",
    .claim = "Machine benchmark: the deterministic fan-out is a pure "
             "performance transform (sequential == parallel bit for bit)",
    .caps = sfs::sim::kCapQuick | sfs::sim::kCapSizes | sfs::sim::kCapReps |
            sfs::sim::kCapSeed | sfs::sim::kCapThreads,
    .params =
        {
            {"--sizes", "size list", "10000,30000,100000 (quick: 2000,5000)",
             "graph sizes"},
            {"--reps", "count", "8 (quick: 4)",
             "portfolio replications per size"},
            {"--seed", "u64 seed", "derived from name",
             "base seed; one stream per size"},
            {"--threads", "count", "0 (shared pool)",
             "worker count of the parallel leg"},
        },
    .run = run_m3,
});

}  // namespace

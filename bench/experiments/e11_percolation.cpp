// E11 — Sarshar et al. (2004): percolation search makes unstructured
// power-law P2P lookup scalable — replicate content along short random
// walks, implant the query likewise, then broadcast with bond-percolation
// probability q_e. Success turns on once q_e crosses the (very low)
// percolation threshold of the power-law core, at sublinear traffic.
//
// Success rate and message cost across q_e and replication length on a
// power-law configuration graph. --quick shrinks the graph and lookup
// count.
#include <string>
#include <vector>

#include "gen/config_model.hpp"
#include "graph/algorithms.hpp"
#include "search/percolation.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"
#include "stats/summary.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

int run_e11(ExperimentContext& ctx) {
  ctx.console() << "Sarshar et al. 2004: percolation search on a power-law "
                   "configuration graph (k = 2.3, largest component).\n\n";
  const bool quick = ctx.options.quick;
  const std::size_t n = ctx.n_or(quick ? 4000 : 20000);
  Rng graph_rng(ctx.stream_seed("graph"));
  const Graph full = sfs::gen::power_law_configuration_graph(
      n, sfs::gen::PowerLawSequenceParams{2.3, 1, 0},
      sfs::gen::ConfigModelOptions{false}, graph_rng);
  const Graph g = sfs::graph::largest_component(full).graph;
  ctx.console() << "graph: " << g.num_vertices() << " vertices, "
                << g.num_edges() << " edges\n\n";

  const std::size_t lookups = ctx.reps_or(quick ? 50 : 150);
  const std::vector<std::size_t> walks =
      quick ? std::vector<std::size_t>{0, 20}
            : std::vector<std::size_t>{0, 20, 100};
  for (const std::size_t walk : walks) {
    sfs::sim::Table t(
        "E11: replication walk length " + std::to_string(walk),
        {"q_e", "success rate", "mean messages", "messages / edges",
         "mean vertices reached"});
    for (const double qe : {0.02, 0.05, 0.1, 0.2, 0.4, 0.7}) {
      std::size_t hits = 0;
      sfs::stats::Accumulator messages;
      sfs::stats::Accumulator reached;
      const std::uint64_t cell_seed = ctx.stream_seed(
          "walk=" + std::to_string(walk) +
          " qe=" + sfs::sim::format_double(qe, 2));
      for (std::uint64_t rep = 0; rep < lookups; ++rep) {
        Rng rng(sfs::rng::derive_seed(cell_seed, rep));
        const auto owner =
            static_cast<VertexId>(rng.uniform_index(g.num_vertices()));
        const auto requester =
            static_cast<VertexId>(rng.uniform_index(g.num_vertices()));
        const auto r = sfs::search::percolation_search(
            g, owner, requester,
            sfs::search::PercolationParams{walk, 10, qe}, rng);
        if (r.found) ++hits;
        messages.add(static_cast<double>(r.messages));
        reached.add(static_cast<double>(r.vertices_reached));
      }
      t.row()
          .num(qe, 2)
          .num(static_cast<double>(hits) / static_cast<double>(lookups), 2)
          .num(messages.mean(), 0)
          .num(messages.mean() / static_cast<double>(g.num_edges()), 3)
          .num(reached.mean(), 0);
    }
    t.print(ctx.console());
    ctx.console() << '\n';
  }
  ctx.console() << "Expected shape: with replication (walk >= 20), success "
                   "approaches 1 well below q_e = 1 while messages stay a "
                   "fraction of the edge count; without replication the "
                   "same q_e fails far more often.\n";
  return 0;
}

}  // namespace

namespace sfs::bench {

sim::ExperimentSpec e11_spec() {
  return {
      .name = "e11",
      .title = "Sarshar 2004: percolation search on power-law P2P graphs",
      .claim = "Lookup success switches on past the percolation threshold at "
               "sublinear message cost",
      .caps = sim::kCapSingleSize | sim::kCapReps,
      .params =
          {
              {"--n", "size", "20000 (quick: 4000)",
               "configuration-graph size before LCC extraction"},
              {"--reps", "count", "150 (quick: 50)",
               "lookups per (walk, q_e) cell"},
              {"--seed", "u64 seed", "derived from name",
               "base seed; graph + per-cell lookup streams"},
          },
      .run = run_e11,
  };
}

}  // namespace sfs::bench

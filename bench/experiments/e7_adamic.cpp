// E7 — Adamic et al. (2001): in pure random power-law graphs with pmf
// exponent k in (2, 3), the high-degree greedy strategy reaches a target
// in O(n^{2(1-2/k)}) steps while a pure random walk needs O(n^{3(1-2/k)}).
//
// Configuration-model sweep over k and n, degree-greedy (strong model, as
// Adamic et al. assume neighbor degrees are visible) vs random walk (raw
// steps), fitted exponents vs both predictions. --quick shrinks the grid
// and the k set.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/theory.hpp"
#include "gen/config_model.hpp"
#include "graph/algorithms.hpp"
#include "search/runner.hpp"
#include "search/strong_algorithms.hpp"
#include "search/weak_algorithms.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

Graph make_lcc(std::size_t n, double k, Rng& rng) {
  const Graph g = sfs::gen::power_law_configuration_graph(
      n, sfs::gen::PowerLawSequenceParams{k, 1, 0},
      sfs::gen::ConfigModelOptions{false}, rng);
  return sfs::graph::largest_component(g).graph;
}

std::pair<VertexId, VertexId> random_pair(const Graph& g, Rng& rng) {
  const auto s = static_cast<VertexId>(rng.uniform_index(g.num_vertices()));
  VertexId t;
  do {
    t = static_cast<VertexId>(rng.uniform_index(g.num_vertices()));
  } while (t == s);
  return {s, t};
}

double greedy_cost(std::size_t n, double k, std::uint64_t seed) {
  Rng rng(seed);
  const Graph g = make_lcc(n, k, rng);
  const auto [s, t] = random_pair(g, rng);
  auto greedy = sfs::search::make_degree_greedy_strong();
  const auto r = sfs::search::run_strong(g, s, t, *greedy, rng);
  return static_cast<double>(r.requests);
}

double walk_cost(std::size_t n, double k, std::uint64_t seed) {
  Rng rng(seed);
  const Graph g = make_lcc(n, k, rng);
  const auto [s, t] = random_pair(g, rng);
  sfs::search::RandomWalkWeak walk;
  const auto r = sfs::search::run_weak(
      g, s, t, walk, rng,
      sfs::search::RunBudget{.max_raw_requests = 400 * n});
  return static_cast<double>(r.raw_requests);
}

int run_e7(ExperimentContext& ctx) {
  ctx.console() << "Adamic et al. 2001, power-law configuration graphs "
                   "(largest component):\n  degree-greedy O(n^{2(1-2/k)})  "
                   "vs  random walk O(n^{3(1-2/k)}).\nCosts: greedy = "
                   "strong-model requests (visited vertices); walk = raw "
                   "steps.\n\n";
  const auto sizes = ctx.sizes_or(
      ctx.options.quick
          ? std::vector<std::size_t>{1000, 2000, 4000}
          : std::vector<std::size_t>{2000, 4000, 8000, 16000, 32000});
  const auto reps = ctx.reps_or(ctx.options.quick ? 2 : 8);
  const std::vector<double> ks =
      ctx.options.quick ? std::vector<double>{2.3, 2.7}
                        : std::vector<double>{2.1, 2.3, 2.5, 2.7};

  for (const double k : ks) {
    const std::string tag = "k=" + sfs::sim::format_double(k, 1);
    const auto greedy = sfs::sim::measure_scaling(
        sizes, reps, ctx.stream_seed("greedy " + tag),
        [k](std::size_t n, std::uint64_t seed) {
          return std::max(1.0, greedy_cost(n, k, seed));
        },
        {.threads = ctx.threads()});
    sfs::sim::print_scaling(
        "E7: degree-greedy steps, " + tag, greedy, "greedy steps",
        sfs::core::theory::adamic_greedy_exponent(k), "2(1-2/k)",
        *ctx.emitter);

    const auto walk = sfs::sim::measure_scaling(
        sizes, reps, ctx.stream_seed("walk " + tag),
        [k](std::size_t n, std::uint64_t seed) {
          return std::max(1.0, walk_cost(n, k, seed));
        },
        {.threads = ctx.threads()});
    sfs::sim::print_scaling(
        "E7: random-walk steps, " + tag, walk, "walk steps",
        sfs::core::theory::adamic_random_walk_exponent(k), "3(1-2/k)",
        *ctx.emitter);

    ctx.console()
        << "who wins at n=" << sizes.back() << ": greedy "
        << sfs::sim::format_double(greedy.points.back().summary.mean, 0)
        << " vs walk "
        << sfs::sim::format_double(walk.points.back().summary.mean, 0)
        << "  (greedy should win, gap growing with n)\n\n";
  }
  return 0;
}

const sfs::sim::ExperimentRegistrar reg_e7({
    .name = "e7",
    .title = "Adamic 2001: degree-greedy vs random walk on power-law "
             "graphs",
    .claim = "Greedy O(n^{2(1-2/k)}) vs walk O(n^{3(1-2/k)}) on "
             "configuration-model largest components",
    .caps = sfs::sim::kCapQuick | sfs::sim::kCapSizes | sfs::sim::kCapReps |
            sfs::sim::kCapSeed | sfs::sim::kCapThreads,
    .params =
        {
            {"--sizes", "size list", "2000..32000 (quick: 1000..4000)",
             "graph sizes before LCC extraction"},
            {"--reps", "count", "8 (quick: 2)",
             "replications per sweep point"},
            {"--seed", "u64 seed", "derived from name",
             "base seed; greedy/walk streams per k"},
            {"--threads", "count", "0 (shared pool)",
             "replication fan-out worker count"},
        },
    .run = run_e7,
});

}  // namespace

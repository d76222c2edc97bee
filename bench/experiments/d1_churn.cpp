// D1 — search-cost and success-rate degradation under steady-state churn.
//
// The paper's bounds are proved on a static snapshot; every deployed P2P
// overlay serves lookups while peers join, leave and links fail. This
// experiment family measures what that costs: for each (churn rate, n)
// cell it builds one power-law overlay (graph::Overlay over the largest
// component of a configuration graph), alternates sim::ChurnSchedule
// steps with departure-tolerant QueryEngine batches for several rounds,
// and reports per policy the mean charged-request cost, lookup success
// rate, probe failures, restarts and abandonment — the degradation curves
// — plus, per churn rate, the fitted cost exponent over n: does the
// static searchability exponent survive steady-state churn?
//
// Pairing: the base graph of a given n is regenerated from a
// rate-independent stream, so every churn rate starts from the identical
// overlay, and every policy serves the identical query rounds.
//
// Contracts checked at runtime (exit 1 on violation):
//   * rate 0 is the static graph: every per-query SearchResult of the
//     overlay-bound engine must equal, bit for bit, a static-graph engine
//     run with the same seeds (the ChurnSchedule null step and the
//     all-alive masks must be unobservable);
//   * churn must not break determinism: all randomness flows through
//     audited streams, no wall-clock value is printed, so stdout is
//     bit-identical for any SFS_THREADS (CI diffs 1 vs 4 under
//     SFS_RNG_AUDIT=1).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gen/config_model.hpp"
#include "graph/algorithms.hpp"
#include "graph/overlay.hpp"
#include "rng/stream_audit.hpp"
#include "search/query_engine.hpp"
#include "sim/churn.hpp"
#include "sim/experiment.hpp"
#include "sim/json.hpp"
#include "sim/report.hpp"
#include "sim/table.hpp"
#include "stats/regression.hpp"

namespace {

using sfs::graph::VertexId;
using sfs::search::Query;
using sfs::search::SearchResult;
using sfs::sim::ExperimentContext;

// Per-round stream tag of a policy session's seed (the engine then derives
// per-query streams from the round seed; see search/query_engine.hpp on
// why same-seed rounds would replay identical randomness).
const std::uint64_t kRoundStream = sfs::rng::mix64(0x0d1ULL);

struct CellAgg {
  std::size_t queries = 0;
  std::size_t found = 0;
  std::size_t abandoned = 0;
  double requests = 0.0;
  double raw_requests = 0.0;
  double failed_requests = 0.0;
  double restarts = 0.0;

  void add(const SearchResult& r) {
    ++queries;
    if (r.found) ++found;
    if (r.abandoned) ++abandoned;
    requests += static_cast<double>(r.requests);
    raw_requests += static_cast<double>(r.raw_requests);
    failed_requests += static_cast<double>(r.failed_requests);
    restarts += static_cast<double>(r.restarts);
  }
  [[nodiscard]] double mean_requests() const {
    return queries == 0 ? 0.0 : requests / static_cast<double>(queries);
  }
  [[nodiscard]] double frac(std::size_t k) const {
    return queries == 0 ? 0.0
                        : static_cast<double>(k) / static_cast<double>(queries);
  }
};

int run_d1(ExperimentContext& ctx) {
  const bool quick = ctx.options.quick;
  const auto sizes = ctx.sizes_or(
      quick ? std::vector<std::size_t>{600, 1200}
            : std::vector<std::size_t>{2000, 4000, 8000});
  const std::size_t batch = ctx.reps_or(quick ? 60 : 200);
  const std::size_t rounds = quick ? 3 : 5;
  const std::vector<double> rates =
      quick ? std::vector<double>{0.0, 0.02}
            : std::vector<double>{0.0, 0.005, 0.02, 0.05};
  std::vector<std::string> policies = ctx.options.policies;
  if (policies.empty()) policies = {"degree-greedy-strong", "random-walk"};

  ctx.console() << "D1: lookup degradation under steady-state churn.\n"
                << "Per (rate, n) cell: " << rounds
                << " churn steps, each followed by a batch of " << batch
                << " lookups per policy; per-step departure probability = "
                   "rate, edge-failure probability = rate/2, departures "
                   "replaced by preferential-attachment joins.\n\n";

  // agg[rate][size][policy]; peers[size] = initial live population.
  std::vector<std::vector<std::vector<CellAgg>>> agg(
      rates.size(),
      std::vector<std::vector<CellAgg>>(
          sizes.size(), std::vector<CellAgg>(policies.size())));
  std::vector<std::size_t> peers_of(sizes.size(), 0);

  sfs::sim::Table t(
      "D1: degradation per (churn rate, n, policy), " +
          std::to_string(rounds * batch) + " lookups each",
      {"rate", "n", "policy", "mean req", "found frac", "mean failed",
       "mean restarts", "abandoned", "compactions"});
  int exit_code = 0;

  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    const double rate = rates[ri];
    for (std::size_t si = 0; si < sizes.size(); ++si) {
      const std::size_t n = sizes[si];
      const std::string cell =
          " rate" + std::to_string(ri) + " n" + std::to_string(n);

      // Base graph: rate-independent stream, so every rate starts from
      // the identical overlay (paired across rates; regeneration from the
      // same seed is bit-identical).
      sfs::rng::Rng graph_rng(ctx.stream_seed("graph n" + std::to_string(n)));
      auto component = sfs::graph::largest_component(
          sfs::gen::power_law_configuration_graph(
              n, sfs::gen::PowerLawSequenceParams{2.3, 1, 0},
              sfs::gen::ConfigModelOptions{false}, graph_rng));
      const std::size_t peers = component.graph.num_vertices();
      peers_of[si] = peers;
      sfs::graph::Overlay overlay(std::move(component.graph));

      sfs::sim::ChurnParams churn_params;
      churn_params.rate = rate;
      churn_params.replace = true;
      churn_params.edge_failure_rate = rate * 0.5;
      churn_params.join_edges = 2;
      const sfs::sim::ChurnSchedule schedule(
          churn_params, ctx.stream_seed("churn" + cell));

      // One overlay-bound engine per policy; at rate 0 also a static twin
      // over the same snapshot for the exact-reproduction contract.
      std::vector<std::unique_ptr<sfs::search::QueryEngine>> engines;
      std::vector<std::unique_ptr<sfs::search::QueryEngine>> static_twins;
      std::vector<std::uint64_t> session_base(policies.size());
      for (std::size_t pi = 0; pi < policies.size(); ++pi) {
        sfs::search::QueryEngineOptions options;
        options.budget.max_raw_requests = 30 * peers;
        engines.push_back(std::make_unique<sfs::search::QueryEngine>(
            overlay, policies[pi], options));
        if (rate == 0.0) {
          static_twins.push_back(std::make_unique<sfs::search::QueryEngine>(
              overlay.snapshot(), policies[pi], options));
        }
        session_base[pi] = ctx.stream_seed("session " + policies[pi] + cell);
      }

      sfs::rng::Rng query_rng(ctx.stream_seed("queries" + cell));
      std::vector<VertexId> alive;
      std::vector<Query> queries(batch);
      sfs::sim::ChurnStepStats churn_totals;
      bool rate0_identical = true;

      for (std::size_t round = 0; round < rounds; ++round) {
        // Inject faults, serve the round's lookups against the broken
        // overlay (tombstones and dead links visible — the tolerant-search
        // path), repair afterwards. Rate 0: both phases are exact no-ops.
        auto step = schedule.inject(overlay, round);

        // Round traffic between live peers, shared by every policy.
        alive.clear();
        const auto mask = overlay.vertex_alive_mask();
        for (std::size_t v = 0; v < mask.size(); ++v) {
          if (mask[v] != 0) alive.push_back(static_cast<VertexId>(v));
        }
        for (auto& q : queries) {
          q.target = alive[static_cast<std::size_t>(
              query_rng.uniform_index(alive.size()))];
          do {
            q.start = alive[static_cast<std::size_t>(
                query_rng.uniform_index(alive.size()))];
          } while (q.start == q.target);
        }

        for (std::size_t pi = 0; pi < policies.size(); ++pi) {
          const std::uint64_t round_seed = sfs::rng::audited_stream_seed(
              session_base[pi], kRoundStream, round);
          engines[pi]->set_seed(round_seed);
          const auto results = engines[pi]->run_batch(queries, ctx.threads());
          for (const auto& r : results) agg[ri][si][pi].add(r);

          if (rate == 0.0) {
            static_twins[pi]->set_seed(round_seed);
            const auto expected =
                static_twins[pi]->run_batch(queries, ctx.threads());
            if (results != expected) rate0_identical = false;
          }
        }

        schedule.repair(overlay, round, step);
        churn_totals.departures += step.departures;
        churn_totals.joins += step.joins;
        churn_totals.edge_failures += step.edge_failures;
        if (step.compacted) churn_totals.compacted = true;
      }

      if (rate == 0.0 && !rate0_identical) {
        ctx.console() << "CONTRACT FAILURE: rate-0 overlay lookups diverged "
                         "from the static graph (n="
                      << n << ")\n";
        exit_code = 1;
      }

      for (std::size_t pi = 0; pi < policies.size(); ++pi) {
        const CellAgg& a = agg[ri][si][pi];
        const double dq = static_cast<double>(a.queries);
        t.row()
            .num(rate, 3)
            .cell(std::to_string(peers))
            .cell(policies[pi])
            .num(a.mean_requests(), 1)
            .num(a.frac(a.found), 3)
            .num(a.failed_requests / dq, 2)
            .num(a.restarts / dq, 3)
            .num(a.frac(a.abandoned), 3)
            .cell(std::to_string(overlay.compactions()));

        sfs::sim::JsonObjectWriter json;
        json.str_field("bench", "d1_churn");
        json.str_field("kind", "churn_point");
        json.num_field("rate", rate);
        json.int_field("n", peers);
        json.str_field("policy", policies[pi]);
        json.str_field("model",
                       std::string(sfs::search::model_name(
                           engines[pi]->model())));
        json.int_field("rounds", rounds);
        json.int_field("queries", a.queries);
        json.num_field("mean_requests", a.mean_requests());
        json.num_field("mean_raw_requests", a.raw_requests / dq);
        json.num_field("found_frac", a.frac(a.found));
        json.num_field("mean_failed_requests", a.failed_requests / dq);
        json.num_field("mean_restarts", a.restarts / dq);
        json.num_field("abandoned_frac", a.frac(a.abandoned));
        json.int_field("departures", churn_totals.departures);
        json.int_field("joins", churn_totals.joins);
        json.int_field("edge_failures", churn_totals.edge_failures);
        json.int_field("compactions", overlay.compactions());
        json.int_field("final_alive", overlay.num_alive());
        json.bool_field("rate0_static_identical",
                        rate == 0.0 ? rate0_identical : true);
        ctx.emitter->emit_object(json.str());
      }
    }
  }
  t.print(ctx.console());

  // Does the fitted cost exponent survive churn? Per (rate, policy), fit
  // mean cost ~ c * n^b over the size grid and compare against rate 0.
  ctx.console() << "\nFitted cost exponent b (mean requests ~ c * n^b) per "
                   "churn rate:\n";
  for (std::size_t pi = 0; pi < policies.size(); ++pi) {
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
      std::vector<double> xs, ys;
      for (std::size_t si = 0; si < sizes.size(); ++si) {
        const double y = agg[ri][si][pi].mean_requests();
        if (y > 0.0) {
          xs.push_back(static_cast<double>(peers_of[si]));
          ys.push_back(y);
        }
      }
      sfs::stats::LinearFit fit;
      if (xs.size() >= 2) fit = sfs::stats::fit_power_law(xs, ys);
      ctx.console() << "  " << policies[pi] << " rate ";
      {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", rates[ri]);
        ctx.console() << buf;
      }
      if (fit.ok()) {
        char buf[96];
        std::snprintf(buf, sizeof buf, ": b = %.3f (stderr %.3f, R^2 %.3f)",
                      fit.slope, fit.slope_stderr, fit.r_squared);
        ctx.console() << buf << "\n";
      } else {
        ctx.console() << ": no fit (needs >= 2 sizes with positive cost)\n";
      }

      sfs::sim::JsonObjectWriter json;
      json.str_field("bench", "d1_churn");
      json.str_field("kind", "exponent_fit");
      json.num_field("rate", rates[ri]);
      json.str_field("policy", policies[pi]);
      json.bool_field("ok", fit.ok());
      json.num_field("exponent", fit.slope);
      json.num_field("stderr", fit.slope_stderr);
      json.num_field("r_squared", fit.r_squared);
      ctx.emitter->emit_object(json.str());
    }
  }
  ctx.console() << "\nRate-0 contract: overlay lookups "
                << (exit_code == 0 ? "reproduce the static graph bit for bit"
                                   : "DIVERGED from the static graph")
                << ".\n";
  return exit_code;
}

}  // namespace

namespace sfs::bench {

sim::ExperimentSpec d1_churn_spec() {
  return {
      .name = "d1_churn",
      .title = "Churn: lookup cost/success degradation on dynamic overlays",
      .claim = "Search cost and success rate degrade smoothly with "
               "steady-state churn, and the rate-0 overlay reproduces "
               "static-graph costs exactly",
      .caps = sim::kCapSizes | sim::kCapReps | sim::kCapThreads |
              sim::kCapPolicies,
      .params =
          {
              {"--sizes", "size list", "2000,4000,8000 (quick: 600,1200)",
               "overlay sizes before largest-component extraction"},
              {"--reps", "count", "200 (quick: 60)",
               "lookups per round (per churn step)"},
              {"--seed", "u64 seed", "derived from name",
               "base seed; graph/churn/query/session streams derive from it"},
              {"--threads", "count", "0 (shared pool)",
               "worker count for query batches (results thread-invariant)"},
              {"--policies", "name list", "degree-greedy-strong,random-walk",
               "policy table names to measure"},
          },
      .run = run_d1,
  };
}

}  // namespace sfs::bench

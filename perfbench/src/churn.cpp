// churn_rounds: one d1 cell. A graph::Overlay over the largest component of
// a configuration-model graph, a sim::ChurnSchedule, and one
// overlay-bound search::QueryEngine per policy. One op is one round:
// inject, one batch of live-peer lookups per policy on the shared pool,
// repair.
//
// Rounds come in episodes: every episode starts from a fresh overlay over
// the same base graph, with its own churn and query streams, so round r
// of any episode sees the same id growth and a run's round times never
// depend on how many rounds an earlier, faster or slower, pass reached.
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/config_model.hpp"
#include "graph/algorithms.hpp"
#include "graph/overlay.hpp"
#include "harness.hpp"
#include "search/query_engine.hpp"
#include "sim/churn.hpp"

namespace perfbench {
namespace {

using sfs::graph::Overlay;
using sfs::graph::VertexId;
using sfs::search::Query;
using sfs::search::QueryEngine;
using sfs::search::SearchResult;

struct ChurnSpec {
  std::size_t n;  // before largest-component extraction
  sfs::sim::ChurnParams params;
  std::size_t batch;  // lookups per policy per round
  std::size_t budget_per_peer;
  std::vector<std::string> policies;
  std::size_t rounds_per_episode;
};

// The outputs of one round, in a fixed order: the churn step, then every
// policy's batch.
std::uint64_t round_digest(const sfs::sim::ChurnStepStats& step,
                           const std::vector<std::vector<SearchResult>>& res) {
  Fnv1a h;
  h.add_u64(step.departures);
  h.add_u64(step.joins);
  h.add_u64(step.edge_failures);
  h.add_u64(step.compacted ? 1 : 0);
  for (const auto& batch : res) {
    for (const SearchResult& r : batch) h.add_result(r);
  }
  return h.value();
}

class ChurnWorkload final : public Workload {
 public:
  ChurnWorkload(ChurnSpec spec, const WorkloadConfig& cfg)
      : spec_(std::move(spec)), seed_(cfg.seed) {}

  void describe(sfs::sim::JsonObjectWriter& out) const override {
    std::string policies;
    for (const auto& p : spec_.policies) {
      if (!policies.empty()) policies += ',';
      policies += '"' + p + '"';
    }
    out.str_field("graph",
                  "configuration model gamma=2.3 d_min=1, largest component");
    out.int_field("n", spec_.n);
    out.int_field("overlay_seed", kOverlaySeed);
    out.int_field("peers", base_.num_vertices());
    out.raw_field("churn_rate", json_number(spec_.params.rate));
    out.raw_field("edge_failure_rate",
                  json_number(spec_.params.edge_failure_rate));
    out.int_field("join_edges", spec_.params.join_edges);
    out.int_field("batch_per_policy", spec_.batch);
    out.int_field("raw_budget_per_peer", spec_.budget_per_peer);
    out.raw_field("policies", "[" + policies + "]");
    out.int_field("rounds_per_episode", spec_.rounds_per_episode);
    out.str_field("batch_fanout", "run_batch threads=0, interleave 1");
    out.int_field("digest_ops", spec_.rounds_per_episode);
  }

  [[nodiscard]] std::size_t digest_ops() const override {
    return spec_.rounds_per_episode;
  }
  [[nodiscard]] std::size_t op_period() const override {
    return spec_.rounds_per_episode;
  }
  [[nodiscard]] std::size_t units_per_op() const override { return 1; }

  void setup(Tracer* tracer, std::size_t rep) override {
    episode_.reset();
    sfs::rng::Rng rng(bench_stream(kOverlaySeed, "churn overlay", 0));
    sfs::graph::Graph full;
    {
      const Tracer::Scope span(tracer, "setup.gen", rep);
      full = sfs::gen::power_law_configuration_graph(
          spec_.n, sfs::gen::PowerLawSequenceParams{2.3, 1, 0},
          sfs::gen::ConfigModelOptions{false}, rng);
    }
    {
      const Tracer::Scope span(tracer, "setup.component", rep);
      base_ = sfs::graph::largest_component(full).graph;
    }
    const Tracer::Scope span(tracer, "setup.engine", rep);
    Episode& ep = start_episode(0);
    const auto warm = neighbour_queries(base_, 16);
    for (auto& engine : ep.engines) (void)engine->run_batch(warm, 0);
    episode_.reset();
  }

  OpOutcome run_op(std::size_t op, Tracer* tracer) override {
    const std::size_t e = op / spec_.rounds_per_episode;
    const std::size_t r = op % spec_.rounds_per_episode;
    if (r == 0) start_episode(e);
    if (!episode_ || episode_->index != e || episode_->next_round != r) {
      throw std::logic_error("churn rounds must run in order");
    }
    Episode& ep = *episode_;
    std::vector<std::vector<SearchResult>> results(spec_.policies.size());
    std::vector<double> batch_s(spec_.policies.size());

    const Clock::time_point t0 = Clock::now();
    sfs::sim::ChurnStepStats step;
    {
      const Tracer::Scope span(tracer, "sim.churn.inject", op);
      step = ep.schedule->inject(*ep.overlay, r);
    }
    std::vector<Query> batch;
    {
      const Tracer::Scope span(tracer, "bench.query_gen", op);
      batch = live_queries(*ep.overlay, op, spec_.batch);
    }
    for (std::size_t pi = 0; pi < spec_.policies.size(); ++pi) {
      QueryEngine& engine = *ep.engines[pi];
      engine.set_seed(session_seed(op, pi));
      const std::size_t rebuilt = engine.sessions_rebuilt();
      results[pi].resize(batch.size());
      const Clock::time_point b0 = Clock::now();
      {
        const Tracer::Scope span(tracer, "search.run_batch", op,
                                 Tracer::kInherit, spec_.policies[pi]);
        engine.run_batch(batch, results[pi], 0);
      }
      batch_s[pi] = seconds_between(b0, Clock::now());
      if (tracer != nullptr) {
        count_search_batch(*tracer, op, spec_.policies[pi], results[pi]);
        tracer->count(op, "search.engine.sessions_rebuilt",
                      static_cast<double>(engine.sessions_rebuilt() - rebuilt));
      }
    }
    {
      const Tracer::Scope span(tracer, "sim.churn.repair", op);
      ep.schedule->repair(*ep.overlay, r, step);
    }
    const double secs = seconds_between(t0, Clock::now());
    ++ep.next_round;

    if (tracer != nullptr) {
      tracer->count(op, "graph.compactions", step.compacted ? 1.0 : 0.0);
      tracer->count(op, "graph.ids",
                    static_cast<double>(ep.overlay->num_vertices()));
    }
    const std::uint64_t digest = round_digest(step, results);
    rounds_[op] = Round{digest, batch_s};

    OpOutcome out;
    out.digest = digest;
    out.units = 1;
    out.busy_s = secs;
    out.latency_ms.push_back(1e3 * secs);
    return out;
  }

  CheckReport check(std::uint64_t sample_seed, std::size_t first,
                    std::size_t count, bool /*full*/) override {
    // Replays the sampled rounds' episodes on a separate overlay (churn
    // steps depend only on the schedule seed and the overlay, never on the
    // lookups served in between) and reruns the round's batches at width
    // 1 on freshly bound engines.
    CheckReport report;
    for (const std::size_t k : sample_indices(sample_seed, count, 2)) {
      const std::size_t op = first + k;
      const Round& pooled = rounds_.at(op);
      ++report.checked;
      try {
        const std::size_t e = op / spec_.rounds_per_episode;
        const std::size_t r = op % spec_.rounds_per_episode;
        Overlay overlay{sfs::graph::Graph(base_)};
        const sfs::sim::ChurnSchedule schedule(spec_.params,
                                               schedule_seed(e));
        for (std::size_t t = 0; t < r; ++t) {
          auto step = schedule.inject(overlay, t);
          schedule.repair(overlay, t, step);
        }
        auto step = schedule.inject(overlay, r);
        const auto batch = live_queries(overlay, op, spec_.batch);
        std::vector<std::vector<SearchResult>> results;
        for (std::size_t pi = 0; pi < spec_.policies.size(); ++pi) {
          QueryEngine engine(overlay, spec_.policies[pi], engine_options());
          engine.set_seed(session_seed(op, pi));
          const Clock::time_point t0 = Clock::now();
          results.push_back(engine.run_batch(batch, 1));
          report.width1_s += seconds_between(t0, Clock::now());
          report.pooled_s += pooled.batch_s[pi];
        }
        schedule.repair(overlay, r, step);
        if (round_digest(step, results) != pooled.digest) {
          ++report.mismatched;
          report.notes.push_back("round " + std::to_string(op) +
                                 " differs at pool width 1");
        }
      } catch (const std::exception& ex) {
        ++report.mismatched;
        report.notes.push_back(std::string("round rerun threw: ") + ex.what());
      }
    }
    return report;
  }

 private:
  struct Episode {
    std::size_t index = 0;
    std::size_t next_round = 0;
    std::unique_ptr<Overlay> overlay;
    std::optional<sfs::sim::ChurnSchedule> schedule;
    std::vector<std::unique_ptr<QueryEngine>> engines;
  };
  struct Round {
    std::uint64_t digest = 0;
    std::vector<double> batch_s;
  };

  [[nodiscard]] std::uint64_t schedule_seed(std::size_t episode) const {
    return bench_stream(seed_, "churn schedule", episode);
  }
  [[nodiscard]] std::uint64_t session_seed(std::size_t op,
                                           std::size_t pi) const {
    return bench_stream(seed_, "churn session",
                        op * spec_.policies.size() + pi);
  }
  [[nodiscard]] sfs::search::QueryEngineOptions engine_options() const {
    sfs::search::QueryEngineOptions options;
    options.budget.max_raw_requests =
        spec_.budget_per_peer * base_.num_vertices();
    return options;
  }

  Episode& start_episode(std::size_t e) {
    episode_.reset();  // engines go before the overlay they reference
    episode_.emplace();
    Episode& ep = *episode_;
    ep.index = e;
    ep.overlay = std::make_unique<Overlay>(sfs::graph::Graph(base_));
    ep.schedule.emplace(spec_.params, schedule_seed(e));
    for (const auto& policy : spec_.policies) {
      ep.engines.push_back(
          std::make_unique<QueryEngine>(*ep.overlay, policy, engine_options()));
    }
    return ep;
  }

  // Uniform start != target pairs over the live peers.
  [[nodiscard]] std::vector<Query> live_queries(const Overlay& overlay,
                                                std::uint64_t op,
                                                std::size_t count) const {
    std::vector<VertexId> alive;
    const auto mask = overlay.vertex_alive_mask();
    for (std::size_t v = 0; v < mask.size(); ++v) {
      if (mask[v] != 0) alive.push_back(static_cast<VertexId>(v));
    }
    sfs::rng::Rng rng(bench_stream(seed_, "churn queries", op));
    std::vector<Query> out(count);
    for (Query& q : out) {
      q.target = alive[rng.uniform_index(alive.size())];
      do {
        q.start = alive[rng.uniform_index(alive.size())];
      } while (q.start == q.target);
    }
    return out;
  }

  ChurnSpec spec_;
  std::uint64_t seed_;
  sfs::graph::Graph base_;
  std::optional<Episode> episode_;
  std::map<std::size_t, Round> rounds_;
};

}  // namespace

std::unique_ptr<Workload> make_churn_rounds(const WorkloadConfig& cfg) {
  sfs::sim::ChurnParams params;
  params.rate = 0.02;
  params.replace = true;
  params.edge_failure_rate = 0.01;
  params.join_edges = 2;
  ChurnSpec spec{
      .n = 8000,
      .params = params,
      .batch = 50,
      .budget_per_peer = 30,
      .policies = {"degree-greedy-strong", "random-walk"},
      .rounds_per_episode = 50,
  };
  if (cfg.tiny) {
    spec.n = 1000;
    spec.batch = 10;
    spec.rounds_per_episode = 10;
  }
  return std::make_unique<ChurnWorkload>(std::move(spec), cfg);
}

}  // namespace perfbench

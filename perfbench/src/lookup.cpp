// lookup_batch: the m5 setup. One configuration-model overlay (gamma 2.3,
// largest component), one search::QueryEngine per policy, and fixed-size
// batches of uniform start != target lookups rotating over the engines. One
// op is one run_batch call on the shared pool. No graph is generated while
// timed.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/config_model.hpp"
#include "graph/algorithms.hpp"
#include "harness.hpp"
#include "search/query_engine.hpp"

namespace perfbench {
namespace {

using sfs::graph::VertexId;
using sfs::search::Query;
using sfs::search::QueryEngine;
using sfs::search::SearchResult;

struct LookupSpec {
  std::size_t n;      // before largest-component extraction
  std::size_t batch;  // lookups per run_batch call
  std::size_t budget_per_peer;
  std::vector<std::string> policies;
  std::size_t digest_batches;
};

class LookupWorkload final : public Workload {
 public:
  LookupWorkload(LookupSpec spec, const WorkloadConfig& cfg)
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
    out.int_field("peers", graph_.num_vertices());
    out.int_field("batch", spec_.batch);
    out.int_field("raw_budget_per_peer", spec_.budget_per_peer);
    out.raw_field("policies", "[" + policies + "]");
    out.str_field("batch_fanout", "run_batch threads=0, interleave 1");
    out.int_field("digest_ops", spec_.digest_batches);
  }

  [[nodiscard]] std::size_t digest_ops() const override {
    return spec_.digest_batches;
  }
  [[nodiscard]] std::size_t op_period() const override {
    return spec_.policies.size();
  }
  [[nodiscard]] std::size_t units_per_op() const override {
    return spec_.batch;
  }

  void setup(Tracer* tracer, std::size_t rep) override {
    engines_.clear();  // they reference graph_
    sfs::rng::Rng rng(bench_stream(kOverlaySeed, "lookup overlay", 0));
    sfs::graph::Graph full;
    {
      const Tracer::Scope span(tracer, "setup.gen", rep);
      full = sfs::gen::power_law_configuration_graph(
          spec_.n, sfs::gen::PowerLawSequenceParams{2.3, 1, 0},
          sfs::gen::ConfigModelOptions{false}, rng);
    }
    {
      const Tracer::Scope span(tracer, "setup.component", rep);
      graph_ = sfs::graph::largest_component(full).graph;
    }
    const Tracer::Scope span(tracer, "setup.engine", rep);
    sfs::search::QueryEngineOptions options;
    options.budget.max_raw_requests = spec_.budget_per_peer * graph_.num_vertices();
    const auto warm = neighbour_queries(graph_, 16);
    for (const auto& policy : spec_.policies) {
      engines_.push_back(std::make_unique<QueryEngine>(graph_, policy, options));
      (void)engines_.back()->run_batch(warm, 0);
    }
  }

  OpOutcome run_op(std::size_t op, Tracer* tracer) override {
    const std::size_t pi = op % spec_.policies.size();
    QueryEngine& engine = *engines_[pi];
    const auto batch = queries(bench_stream(seed_, "lookup queries", op),
                               spec_.batch);
    engine.set_seed(bench_stream(seed_, "lookup session", op));
    results_.assign(batch.size(), SearchResult{});
    const std::size_t rebuilt = engine.sessions_rebuilt();
    const Clock::time_point t0 = Clock::now();
    {
      const Tracer::Scope span(tracer, "search.run_batch", op,
                               Tracer::kInherit, spec_.policies[pi]);
      engine.run_batch(batch, results_, 0);
    }
    const double secs = seconds_between(t0, Clock::now());

    Fnv1a h;
    for (const SearchResult& r : results_) h.add_result(r);
    if (tracer != nullptr) {
      count_search_batch(*tracer, op, spec_.policies[pi], results_);
      tracer->count(op, "search.engine.sessions_rebuilt",
                    static_cast<double>(engine.sessions_rebuilt() - rebuilt));
    }
    batches_[op] = Batch{h.value(), secs};

    OpOutcome out;
    out.digest = h.value();
    out.units = batch.size();
    out.busy_s = secs;
    out.latency_ms.push_back(1e3 * secs);
    return out;
  }

  CheckReport check(std::uint64_t sample_seed, std::size_t first,
                    std::size_t count, bool /*full*/) override {
    // One batch per engine, rerun on that engine at width 1: per-query
    // streams depend only on the batch seed and the query's position.
    CheckReport report;
    const std::size_t engines = spec_.policies.size();
    // first is a multiple of the engine count, so op first + k * engines
    // + pi ran on engine pi.
    for (std::size_t pi = 0; pi < engines; ++pi) {
      const std::size_t runs = count / engines + (pi < count % engines ? 1 : 0);
      for (const std::size_t k : sample_indices(sample_seed + pi, runs, 1)) {
        const std::size_t op = first + k * engines + pi;
        const Batch& pooled = batches_.at(op);
        ++report.checked;
        try {
          QueryEngine& engine = *engines_[pi];
          const auto batch = queries(
              bench_stream(seed_, "lookup queries", op), spec_.batch);
          engine.set_seed(bench_stream(seed_, "lookup session", op));
          const Clock::time_point t0 = Clock::now();
          const auto results = engine.run_batch(batch, 1);
          report.width1_s += seconds_between(t0, Clock::now());
          report.pooled_s += pooled.secs;
          Fnv1a h;
          for (const SearchResult& r : results) h.add_result(r);
          if (h.value() != pooled.digest) {
            ++report.mismatched;
            report.notes.push_back("batch " + std::to_string(op) + " (" +
                                   spec_.policies[pi] +
                                   ") differs at pool width 1");
          }
        } catch (const std::exception& e) {
          ++report.mismatched;
          report.notes.push_back(std::string("batch rerun threw: ") +
                                 e.what());
        }
      }
    }
    return report;
  }

 private:
  struct Batch {
    std::uint64_t digest = 0;
    double secs = 0.0;
  };

  [[nodiscard]] std::vector<Query> queries(std::uint64_t stream,
                                           std::size_t count) const {
    sfs::rng::Rng rng(stream);
    const std::size_t peers = graph_.num_vertices();
    std::vector<Query> out(count);
    for (Query& q : out) {
      q.target = static_cast<VertexId>(rng.uniform_index(peers));
      do {
        q.start = static_cast<VertexId>(rng.uniform_index(peers));
      } while (q.start == q.target);
    }
    return out;
  }

  LookupSpec spec_;
  std::uint64_t seed_;
  sfs::graph::Graph graph_;
  std::vector<std::unique_ptr<QueryEngine>> engines_;
  std::vector<SearchResult> results_;
  std::map<std::size_t, Batch> batches_;
};

}  // namespace

std::unique_ptr<Workload> make_lookup_batch(const WorkloadConfig& cfg) {
  LookupSpec spec{
      .n = 50000,
      .batch = 24,
      .budget_per_peer = 50,
      .policies = {"degree-greedy-strong", "bfs-strong", "random-walk"},
      .digest_batches = 30,
  };
  if (cfg.tiny) {
    spec.n = 2000;
    spec.batch = 8;
    spec.digest_batches = 6;
  }
  return std::make_unique<LookupWorkload>(std::move(spec), cfg);
}

}  // namespace perfbench

// grid_weak and grid_strong: the e1/e2 grid pipeline, scaled down. One op
// is one sim::measure_scaling call on the shared pool (checkpointed, with a
// bootstrap CI on the fitted exponent); each of its cells is one
// sim::measure_portfolio call over the model's full portfolio on a fresh
// Móri graph, run sequentially inside the cell as e1/e2 do.
//
// The cells generate their graphs through gen::MoriProcess directly, the
// calls gen::mori_tree / gen::merged_mori_graph make themselves, so the
// traced run can time growth and CSR build apart. The output check reruns
// cells with the library's own generators at pool width 1: that the two
// agree bit for bit is part of what it checks.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "base/parallel.hpp"
#include "gen/mori.hpp"
#include "harness.hpp"
#include "search/policy.hpp"
#include "sim/scaling.hpp"
#include "sim/sweep.hpp"

namespace perfbench {
namespace {

using sfs::gen::GenScratch;
using sfs::graph::Graph;
using sfs::rng::Rng;

struct GridSpec {
  const char* name;
  sfs::search::KnowledgeModel model;
  double p;
  // Merged Móri graph with m = 1 (the e1 graph); otherwise the Móri tree
  // (the e2 graph).
  bool merged;
  std::vector<std::size_t> sizes;
  std::size_t reps;
  std::size_t budget_per_vertex;  // raw-request budget / n; 0: no budget
  std::size_t bootstrap;
  std::size_t digest_calls;
};

std::uint64_t portfolio_digest(const sfs::sim::PortfolioCost& cost) {
  Fnv1a h;
  h.add_u64(cost.best);
  for (const auto& pol : cost.policies) {
    h.add_str(pol.name);
    h.add_u64(pol.requests.count);
    h.add_f64(pol.requests.mean);
    h.add_f64(pol.requests.variance);
    h.add_f64(pol.requests.min);
    h.add_f64(pol.requests.max);
    h.add_f64(pol.raw_requests.mean);
    h.add_f64(pol.median_requests);
    h.add_f64(pol.p90_requests);
    h.add_f64(pol.found_fraction);
    h.add_f64(pol.mean_failed_requests);
    h.add_f64(pol.mean_restarts);
    h.add_f64(pol.abandoned_fraction);
  }
  return h.value();
}

std::uint64_t series_digest(const sfs::sim::ScalingSeries& s) {
  Fnv1a h;
  for (const auto& pt : s.points) {
    h.add_u64(pt.n);
    for (const double v : pt.raw) h.add_f64(v);
  }
  h.add_f64(s.fit.slope);
  h.add_f64(s.fit.intercept);
  h.add_f64(s.weighted_fit.slope);
  h.add_f64(s.slope_ci.lo);
  h.add_f64(s.slope_ci.hi);
  h.add_u64(s.slope_ci.replicates);
  for (const std::size_t n : s.excluded) h.add_u64(n);
  return h.value();
}

class GridWorkload final : public Workload {
 public:
  GridWorkload(GridSpec spec, const WorkloadConfig& cfg)
      : spec_(std::move(spec)), seed_(cfg.seed), workdir_(cfg.workdir) {}

  void describe(sfs::sim::JsonObjectWriter& out) const override {
    std::string sizes;
    for (const std::size_t n : spec_.sizes) {
      if (!sizes.empty()) sizes += ',';
      sizes += std::to_string(n);
    }
    out.str_field("graph", spec_.merged ? "merged Mori m=1" : "Mori tree");
    out.raw_field("p", json_number(spec_.p));
    out.str_field("model",
                  std::string(sfs::search::model_name(spec_.model)));
    out.int_field("portfolio_policies", portfolio_size());
    out.raw_field("sizes", "[" + sizes + "]");
    out.int_field("reps", spec_.reps);
    out.int_field("raw_budget_per_vertex", spec_.budget_per_vertex);
    out.int_field("bootstrap_replicates", spec_.bootstrap);
    out.str_field("endpoints", "oldest_to_newest");
    out.str_field("cell_fanout", "measure_scaling threads=0, cell threads=1");
    out.int_field("digest_ops", spec_.digest_calls);
  }

  [[nodiscard]] std::size_t digest_ops() const override {
    return spec_.digest_calls;
  }
  [[nodiscard]] std::size_t units_per_op() const override {
    return spec_.sizes.size() * spec_.reps;
  }

  // Pool start-up and allocator warm-up: one graph of every grid size per
  // worker, through the same generation path the cells use.
  void setup(Tracer* tracer, std::size_t rep) override {
    const std::size_t workers = sfs::base::resolve_worker_count(0);
    std::vector<GenScratch> scratch(workers);
    std::vector<Graph> graphs(workers);
    const Tracer::Scope span(tracer, "setup.gen", rep);
    sfs::base::parallel_for(
        workers, 0, [&](std::size_t task, std::size_t worker) {
          for (std::size_t i = 0; i < spec_.sizes.size(); ++i) {
            Rng rng(bench_stream(seed_, "grid setup",
                                 task * spec_.sizes.size() + i));
            generate(spec_.sizes[i], rng, scratch[worker], graphs[worker],
                     nullptr, 0);
          }
        });
  }

  OpOutcome run_op(std::size_t op, Tracer* tracer) override {
    const std::uint64_t call_seed = bench_stream(seed_, "grid call", op);
    const std::string checkpoint = checkpoint_path(op, "pool");
    std::filesystem::remove(checkpoint);
    sfs::sim::ScalingOptions options;
    options.threads = 0;
    options.checkpoint_path = checkpoint;
    options.bootstrap_replicates = spec_.bootstrap;

    std::mutex cells_mu;
    std::vector<Cell> cells;
    sfs::sim::ScalingSeries series;
    Clock::time_point t0;
    Clock::time_point t1;
    {
      const Tracer::Scope call(tracer, "sim.measure_scaling", op);
      const std::uint64_t call_span = call.id();
      const std::function<double(std::size_t, std::uint64_t, GenScratch&)>
          measure = [&](std::size_t n, std::uint64_t seed,
                        GenScratch& scratch) {
            const Clock::time_point c0 = Clock::now();
            const Tracer::Scope cell(tracer, "sim.cell", op, call_span);
            sfs::sim::PortfolioCost cost;
            {
              const Tracer::Scope span(tracer, "sim.measure_portfolio", op);
              sfs::sim::RunPlan plan = base_plan(n, seed);
              plan.scratch_factory = [&](Rng& rng, GenScratch&, Graph& out) {
                // The portfolio runs sequentially inside the cell, so the
                // sweep's per-worker scratch is reused, as in e1/e2.
                generate(n, rng, scratch, out, tracer, op);
              };
              cost = sfs::sim::measure_portfolio(plan);
            }
            const double value = cost.best_policy().requests.mean;
            if (tracer != nullptr) count_cell(*tracer, op, n, cost);
            const Cell rec{op, n, seed, portfolio_digest(cost),
                           1e3 * seconds_between(c0, Clock::now())};
            const std::lock_guard<std::mutex> lock(cells_mu);
            cells.push_back(rec);
            return value;
          };
      t0 = Clock::now();
      series = sfs::sim::measure_scaling(spec_.sizes, spec_.reps, call_seed,
                                         measure, options);
      t1 = Clock::now();
    }
    if (tracer != nullptr) {
      tracer->count(op, "sim.checkpoint_bytes",
                    static_cast<double>(std::filesystem::file_size(checkpoint)));
    }
    std::filesystem::remove(checkpoint);

    OpOutcome out;
    out.digest = series_digest(series);
    out.units = cells.size();
    out.busy_s = seconds_between(t0, t1);
    // Cells finish in scheduling order; sorted, the output check samples the
    // same cells at any pool width.
    std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
      return std::tie(a.n, a.seed) < std::tie(b.n, b.seed);
    });
    for (const Cell& c : cells) {
      if (c.n == spec_.sizes.back()) out.latency_ms.push_back(c.ms);
    }
    calls_[op] = Call{call_seed, out.busy_s, out.digest, std::move(cells)};
    return out;
  }

  CheckReport check(std::uint64_t sample_seed, std::size_t first,
                    std::size_t count, bool full) override {
    CheckReport report;
    // Cells: one top-size cell and one cell of any size, rerun through
    // measure_portfolio at width 1 with the library's generator.
    std::vector<const Cell*> all;
    std::vector<const Cell*> top;
    for (std::size_t op = first; op < first + count; ++op) {
      const auto it = calls_.find(op);
      if (it == calls_.end()) continue;
      for (const Cell& c : it->second.cells) {
        all.push_back(&c);
        if (c.n == spec_.sizes.back()) top.push_back(&c);
      }
    }
    std::vector<const Cell*> picked;
    for (const std::size_t i : sample_indices(sample_seed, top.size(), 1)) {
      picked.push_back(top[i]);
    }
    for (const std::size_t i : sample_indices(sample_seed ^ 1, all.size(), 1)) {
      picked.push_back(all[i]);
    }
    for (const Cell* c : picked) {
      ++report.checked;
      try {
        sfs::sim::RunPlan plan = base_plan(c->n, c->seed);
        plan.factory = reference_factory(c->n);
        if (portfolio_digest(sfs::sim::measure_portfolio(plan)) != c->digest) {
          ++report.mismatched;
          report.notes.push_back("cell n=" + std::to_string(c->n) + " op " +
                                 std::to_string(c->op) +
                                 " differs at pool width 1");
        }
      } catch (const std::exception& e) {
        ++report.mismatched;
        report.notes.push_back(std::string("cell rerun threw: ") + e.what());
      }
    }
    if (full && count > 0) {
      // One whole measure_scaling call at width 1: the same series bit for
      // bit, and its time against the pooled call's time.
      const std::size_t op =
          first + sample_indices(sample_seed ^ 2, count, 1).front();
      const Call& call = calls_.at(op);
      ++report.checked;
      try {
        const std::string checkpoint = checkpoint_path(op, "width1");
        std::filesystem::remove(checkpoint);
        sfs::sim::ScalingOptions options;
        options.threads = 1;
        options.checkpoint_path = checkpoint;
        options.bootstrap_replicates = spec_.bootstrap;
        const std::function<double(std::size_t, std::uint64_t)> measure =
            [&](std::size_t n, std::uint64_t seed) {
              sfs::sim::RunPlan plan = base_plan(n, seed);
              plan.factory = reference_factory(n);
              return sfs::sim::measure_portfolio(plan)
                  .best_policy()
                  .requests.mean;
            };
        const Clock::time_point t0 = Clock::now();
        const auto series = sfs::sim::measure_scaling(
            spec_.sizes, spec_.reps, call.seed, measure, options);
        report.width1_s = seconds_between(t0, Clock::now());
        report.pooled_s = call.wall_s;
        std::filesystem::remove(checkpoint);
        if (series_digest(series) != call.digest) {
          ++report.mismatched;
          report.notes.push_back("measure_scaling op " + std::to_string(op) +
                                 " differs at pool width 1");
        }
      } catch (const std::exception& e) {
        ++report.mismatched;
        report.notes.push_back(std::string("call rerun threw: ") + e.what());
      }
    }
    return report;
  }

 private:
  struct Cell {
    std::size_t op = 0;
    std::size_t n = 0;
    std::uint64_t seed = 0;
    std::uint64_t digest = 0;
    double ms = 0.0;
  };
  struct Call {
    std::uint64_t seed = 0;
    double wall_s = 0.0;
    std::uint64_t digest = 0;
    std::vector<Cell> cells;
  };

  [[nodiscard]] std::size_t portfolio_size() const {
    return sfs::search::resolve_policies(spec_.model, {}).size();
  }

  [[nodiscard]] std::string checkpoint_path(std::size_t op,
                                            const char* tag) const {
    return workdir_ + "/" + spec_.name + "-" + tag + "-" +
           std::to_string(op) + ".csv";
  }

  [[nodiscard]] sfs::sim::RunPlan base_plan(std::size_t n,
                                            std::uint64_t seed) const {
    sfs::sim::RunPlan plan;
    plan.model = spec_.model;
    plan.endpoints = sfs::sim::oldest_to_newest();
    plan.seed = seed;
    if (spec_.budget_per_vertex > 0) {
      plan.budget.max_raw_requests = spec_.budget_per_vertex * n;
    }
    return plan;
  }

  // The library's own generator: what the cells' decomposed generation
  // must reproduce.
  [[nodiscard]] sfs::sim::GraphFactory reference_factory(std::size_t n) const {
    const sfs::gen::MoriParams params{spec_.p};
    if (spec_.merged) {
      return [n, params](Rng& rng) {
        return sfs::gen::merged_mori_graph(n, 1, params, rng);
      };
    }
    return [n, params](Rng& rng) {
      return sfs::gen::mori_tree(n, params, rng);
    };
  }

  void generate(std::size_t n, Rng& rng, GenScratch& scratch, Graph& out,
                Tracer* tracer, std::size_t op) const {
    sfs::gen::MoriProcess proc(sfs::gen::MoriParams{spec_.p}, scratch);
    {
      const Tracer::Scope span(tracer, "gen.grow", op);
      proc.grow_to(n, rng);
    }
    {
      const Tracer::Scope span(tracer, "graph.build", op);
      if (spec_.merged) {
        proc.graph_into(scratch, scratch.tmp_graph);
        sfs::gen::merge_consecutive(scratch.tmp_graph, 1, scratch, out);
      } else {
        proc.graph_into(scratch, out);
      }
    }
    proc.release_scratch(scratch);
  }

  static void count_cell(Tracer& tracer, std::size_t op, std::size_t n,
                         const sfs::sim::PortfolioCost& cost) {
    double raw = 0.0;
    double charged = 0.0;
    for (const auto& pol : cost.policies) {
      tracer.count(op, "search." + metric_key(pol.name) + ".probes_raw",
                   pol.raw_requests.mean);
      raw += pol.raw_requests.mean;
      charged += pol.requests.mean;
    }
    tracer.count(op, "search.probes_raw", raw);
    tracer.count(op, "search.probes_charged", charged);
    tracer.count(op, "sim.portfolio.best_charged",
                 cost.best_policy().requests.mean);
    tracer.count(op, "gen.vertices", static_cast<double>(n));
  }

  GridSpec spec_;
  std::uint64_t seed_;
  std::string workdir_;
  std::map<std::size_t, Call> calls_;
};

}  // namespace

std::unique_ptr<Workload> make_grid_weak(const WorkloadConfig& cfg) {
  GridSpec spec{
      .name = "grid_weak",
      .model = sfs::search::KnowledgeModel::kWeak,
      .p = 0.5,
      .merged = true,
      .sizes = {1U << 14, 1U << 15, 1U << 16},
      .reps = 6,
      .budget_per_vertex = 40,
      .bootstrap = 400,
      .digest_calls = 3,
  };
  if (cfg.tiny) {
    spec.sizes = {256, 512, 1024};
    spec.reps = 3;
    spec.digest_calls = 2;
  }
  return std::make_unique<GridWorkload>(std::move(spec), cfg);
}

std::unique_ptr<Workload> make_grid_strong(const WorkloadConfig& cfg) {
  GridSpec spec{
      .name = "grid_strong",
      .model = sfs::search::KnowledgeModel::kStrong,
      .p = 0.25,
      .merged = false,
      .sizes = {1U << 15, 1U << 16, 1U << 17},
      .reps = 6,
      .budget_per_vertex = 0,
      .bootstrap = 400,
      .digest_calls = 3,
  };
  if (cfg.tiny) {
    spec.sizes = {512, 1024, 2048};
    spec.reps = 3;
    spec.digest_calls = 2;
  }
  return std::make_unique<GridWorkload>(std::move(spec), cfg);
}

}  // namespace perfbench

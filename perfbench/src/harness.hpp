// Shared pieces of the benchmark driver: the per-op output fold behind
// results_digest, the in-memory span recorder of the traced run, and the
// interface every workload implements.
//
// The benchmark only calls the library's public functions. Spans are
// recorded here, around those calls, never inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "search/query_engine.hpp"
#include "search/runner.hpp"
#include "sim/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// FNV-1a over 64-bit words (little-endian bytes).
class Fnv1a {
 public:
  void add_u64(std::uint64_t v) noexcept;
  void add_f64(double v) noexcept;
  void add_str(const std::string& s) noexcept;
  /// Every field of a SearchResult, in declaration order.
  void add_result(const sfs::search::SearchResult& r) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Records spans (name, start, end, parent span, op id) and per-op counts in
/// memory; write_jsonl() writes them out when the run ends. A null Tracer*
/// turns every Scope into a no-op, which is how the untraced passes run.
class Tracer {
 public:
  static constexpr std::uint64_t kInherit = ~0ULL;

  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0: no parent
    std::string name;
    std::string label;  // e.g. the policy of a run_batch span
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t op = 0;
    std::uint32_t thread = 0;
  };
  struct Count {
    std::uint64_t op = 0;
    std::string name;
    double value = 0.0;
  };

  /// A span from construction to destruction. The parent is the innermost
  /// open span of the calling thread unless `parent` names one explicitly
  /// (a cell on a pool worker names the measure_scaling span that
  /// spawned it).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t op,
          std::uint64_t parent = kInherit, std::string_view label = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// 0 when tracing is off.
    [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  void count(std::uint64_t op, std::string name, double value);

  /// One JSON object per line: {"kind":"span",...} then {"kind":"count",...}.
  /// Throws std::runtime_error when the file cannot be written.
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;  // guarded by mu_
  std::vector<Span> spans_;    // guarded by mu_
  std::vector<Count> counts_;  // guarded by mu_
};

/// Metric-name form of a policy name: characters outside [A-Za-z0-9_.-]
/// become '_'.
[[nodiscard]] std::string metric_key(const std::string& policy);

/// Search-layer counts of one batch (probes by kind, restarts, abandoned
/// and total queries), recorded under `op`.
void count_search_batch(Tracer& tracer, std::size_t op,
                        const std::string& policy,
                        std::span<const sfs::search::SearchResult> results);

/// Full-precision JSON number (17 significant digits; null if not finite).
[[nodiscard]] std::string json_number(double v);

/// What one timed op produced.
struct OpOutcome {
  /// FNV-1a over the op's outputs, in a fixed order.
  std::uint64_t digest = 0;
  /// Work items the op completed (cells, lookups or rounds).
  std::size_t units = 0;
  /// Time the throughput metric divides by.
  double busy_s = 0.0;
  /// Samples of the workload's latency unit (top-size cells, batches,
  /// rounds), in milliseconds.
  std::vector<double> latency_ms;
};

/// Result of rerunning a seeded sample of ops at pool width 1.
struct CheckReport {
  std::size_t checked = 0;
  std::size_t mismatched = 0;  // differed from the pooled run, or threw
  double width1_s = 0.0;       // time of the reruns
  double pooled_s = 0.0;       // time of the same work on the pool
  std::vector<std::string> notes;
};

/// One benchmark workload. Op i does the same work in every pass, in every
/// process and on every commit for a given seed. A pass runs consecutive
/// ops starting at 0 or at a multiple of op_period().
class Workload {
 public:
  virtual ~Workload() = default;

  /// Workload parameters for the manifest record.
  virtual void describe(sfs::sim::JsonObjectWriter& out) const = 0;
  /// Ops folded into results_digest; per-layer counts cover the same ops.
  [[nodiscard]] virtual std::size_t digest_ops() const = 0;
  /// A pass stops only at a multiple of this, so each run covers whole
  /// rotations (lookup engines) or episodes (churn).
  [[nodiscard]] virtual std::size_t op_period() const { return 1; }
  /// Work items one op attempts (counted as failed when the op throws).
  [[nodiscard]] virtual std::size_t units_per_op() const = 0;

  /// Builds everything the ops need. Called several times; each call
  /// replaces the previous state.
  virtual void setup(Tracer* tracer, std::size_t rep) = 0;
  virtual OpOutcome run_op(std::size_t op, Tracer* tracer) = 0;
  /// Reruns a seeded sample of ops [first, first + count), which the last
  /// pass ran, at pool width 1 and compares outputs bit for bit. `full`
  /// additionally reruns a whole op where an op is itself pooled (the
  /// traced run's speedup figure).
  virtual CheckReport check(std::uint64_t sample_seed, std::size_t first,
                            std::size_t count, bool full) = 0;
};

struct WorkloadConfig {
  std::uint64_t seed = 0;
  bool tiny = false;       // self-test sizes
  std::string workdir;     // fresh scratch directory of this run
};

[[nodiscard]] std::unique_ptr<Workload> make_grid_weak(const WorkloadConfig&);
[[nodiscard]] std::unique_ptr<Workload> make_grid_strong(
    const WorkloadConfig&);
[[nodiscard]] std::unique_ptr<Workload> make_lookup_batch(
    const WorkloadConfig&);
[[nodiscard]] std::unique_ptr<Workload> make_churn_rounds(
    const WorkloadConfig&);

/// Seed of the fixed overlay graphs of lookup_batch and churn_rounds. The
/// graph is the dataset these workloads serve; --seed varies the traffic
/// and the churn on it. A random walk's cost on one configuration-model
/// sample swings by a third from sample to sample (its edge count has
/// infinite variance at gamma 2.3), which a per-seed graph would turn into
/// run-to-run spread.
inline constexpr std::uint64_t kOverlaySeed = 0x5f5b0e7aULL;

/// `count` cheap lookups (a vertex and one of its neighbours), used to grow
/// every worker's engine session before timing.
[[nodiscard]] std::vector<sfs::search::Query> neighbour_queries(
    const sfs::graph::Graph& g, std::size_t count);

/// Seed of stream `index` under a benchmark-chosen tag: every input the
/// benchmark generates is a pure function of (--seed, tag, index).
[[nodiscard]] std::uint64_t bench_stream(std::uint64_t seed, const char* tag,
                                         std::uint64_t index);

/// Seeded choice of `k` distinct indices in [0, n) (all of them if k >= n),
/// sorted.
[[nodiscard]] std::vector<std::size_t> sample_indices(std::uint64_t seed,
                                                      std::size_t n,
                                                      std::size_t k);

}  // namespace perfbench

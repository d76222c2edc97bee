// Structured experiment reporting: the one place every experiment's
// results flow through, whether they end up as human tables, BENCH_JSON
// console lines (greppable perf trajectories), or a --json JSONL file.
// Shared by the unified driver (sim/experiment.hpp), the tests and the
// examples.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/scaling.hpp"

namespace sfs::sim {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Unified structured-results emitter. Human-readable output (tables,
/// prose) goes to console(); every machine-readable result goes through
/// emit_object(), which writes a "BENCH_JSON {...}" line to the console
/// and, when a JSONL sink is open (--json <path>), the bare object line to
/// that file as well — so a perf pipeline can either grep the log or read
/// the file, and the two never disagree.
///
/// Threading: single-writer. Only the driver thread emits — replication
/// workers return values that the caller folds in index order and emits
/// after the join (the bit-identity contract forbids emission from inside
/// the fan-out anyway, since line order would then depend on scheduling).
/// Hence no mutex and no capability annotations here; see docs/ANALYSIS.md
/// ("Capability annotations").
class ResultsEmitter {
 public:
  /// Emits to `console` (defaults to std::cout); no JSONL file.
  explicit ResultsEmitter(std::ostream& console);
  ResultsEmitter();

  /// Opens `path` for JSONL output (truncating). Throws std::runtime_error
  /// when the file cannot be opened or a later write fails (a silently
  /// half-written results file is worse than a failed run).
  void open_jsonl(const std::string& path);

  [[nodiscard]] std::ostream& console() noexcept { return *console_; }

  /// Writes one JSON object line (the string must be a complete JSON
  /// object, e.g. from JsonObjectWriter::str()).
  void emit_object(const std::string& json_object);

  /// One per-point result line:
  ///   {"bench":...,"n":...,"reps":...,"mean":...,"stderr":...,"wall_s":...}
  /// Pass a negative `wall_seconds` when wall time was not measured
  /// (emitted as null).
  void emit_point(const std::string& name, std::size_t n, std::size_t reps,
                  double mean, double stderr_mean, double wall_seconds);

  /// The fitted-exponent companion line to the per-point records
  /// ("kind":"fit" with slope/CI fields, null when the series has no
  /// usable fit or no bootstrap CI).
  void emit_fit(const std::string& name, const ScalingSeries& series);

 private:
  std::ostream* console_;
  std::ofstream file_;
  bool has_file_ = false;
  std::string file_path_;
};

/// Prints a ScalingSeries as a table with a fitted-slope footer comparing
/// against a theoretical exponent, plus one emitted point line per sweep
/// entry (wall time unmeasured at this granularity) and one "fit" line.
/// Honors the no-fit contract: a series where has_fit() is false reports
/// "no usable fit" instead of quoting the meaningless default slope, and
/// points excluded from the fit are always listed.
void print_scaling(const std::string& title, const ScalingSeries& series,
                   const std::string& quantity, double theory_slope,
                   const std::string& theory_label, ResultsEmitter& emitter);

/// The shared grid/options plan of a large-n scaling run: geometric grid
/// to n = 2,097,152 (>= 2e6) with 3 reps and a 400-replicate bootstrap CI
/// — or a small smoke grid through the same code path when `quick` — with
/// optional checkpoint/resume. `threads` selects the replication fan-out
/// (0 = shared pool; measure lambdas must be thread-safe).
struct LargeRunPlan {
  std::vector<std::size_t> sizes;
  std::size_t reps = 0;
  ScalingOptions options;
};

[[nodiscard]] LargeRunPlan plan_large_run(bool quick,
                                          const std::string& checkpoint_path,
                                          std::size_t threads = 0);

/// Prints a finished large-run series plus the grid/wall footer, then
/// enforces the large-mode result contract: a usable exponent fit
/// (has_fit()) with a computed bootstrap CI. Returns the process exit
/// code — the contract failing is exit 1, so CI catches a sweep that
/// silently degraded into a non-measurement.
[[nodiscard]] int report_large_run(const std::string& title,
                                   const LargeRunPlan& plan,
                                   const ScalingSeries& series,
                                   const std::string& quantity,
                                   double theory_slope,
                                   const std::string& theory_label,
                                   double wall_seconds,
                                   ResultsEmitter& emitter);

}  // namespace sfs::sim

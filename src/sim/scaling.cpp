#include "sim/scaling.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "base/check.hpp"
#include "base/parallel.hpp"
#include "base/sync.hpp"
#include "base/thread_annotations.hpp"
#include "rng/random.hpp"
#include "rng/stream_audit.hpp"
#include "sim/csv.hpp"
#include "sim/experiment.hpp"

namespace sfs::sim {

std::vector<double> ScalingSeries::means() const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(p.summary.mean);
  return out;
}

std::vector<double> ScalingSeries::sizes() const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(static_cast<double>(p.n));
  return out;
}

namespace {

// Stream tag of size index i. The tag is tempered through mix64: the old
// scheme (point seed = mix64(seed ^ (0x9e37 + i)), i.e. an untempered
// XOR tag) let two experiments whose seeds differ by a small XOR delta —
// (0x9e37+i1) ^ (0x9e37+i2), e.g. 0x0F for adjacent indices — share an
// entire per-size replication stream at shifted size indices. Tempering
// makes inter-tag XOR deltas full-entropy 64-bit values, so nearby seeds
// cannot alias. Routed through derive_stream_seed like sweep.cpp's
// streams, which keeps the stream-discipline note in rng/random.cpp
// honest (every harness derives streams the same way).
std::uint64_t size_stream(std::size_t i) {
  return rng::mix64(0x9e37ULL + i);
}

// bootstrap_slope_ci's two-sided miscoverage (a 95% CI) and the seed of its
// resampling stream, which is independent of the measurement seed.
constexpr double kBootstrapAlpha = 0.05;
constexpr std::uint64_t kBootstrapSeed = 0xB007CAFEULL;

// ------------------------------------------------------------ checkpoint
//
// CSV layout (sim/csv): a meta row binding the file to one (seed, reps,
// sizes) grid, a header row, then one row per completed cell. The trailing
// "end" sentinel field rejects rows cut off mid-write — a torn value like
// "4.5" truncated from "4.55" still parses as a double, but the missing
// sentinel unmasks it. Only the final line of a file may be torn (rows are
// flushed whole, in order); a malformed row anywhere else means the file
// is not one of ours and resuming would corrupt the experiment.

constexpr const char* kCkptMagic = "sfs_scaling_checkpoint";
constexpr const char* kCkptVersion = "v1";
constexpr const char* kCkptEnd = "end";

std::string join_sizes(const std::vector<std::size_t>& sizes) {
  std::string out;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0) out += ';';
    out += std::to_string(sizes[i]);
  }
  return out;
}

// std::to_chars shortest form round-trips every finite double exactly and
// is locale-independent (snprintf("%g")/strtod honor LC_NUMERIC, so a
// checkpoint written under the C locale would fail to resume inside a
// host program that set a comma-decimal locale). A resumed series folds
// the same bits as the uninterrupted run.
std::string format_value(double v) {
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  SFS_CHECK(ec == std::errc(), "double format failed");
  return std::string(buf, ptr);
}

bool parse_index(const std::string& s, std::size_t& out) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last && !s.empty();
}

std::vector<std::string> meta_row(const std::vector<std::size_t>& sizes,
                                  std::size_t reps, std::uint64_t seed) {
  return {kCkptMagic, kCkptVersion, std::to_string(seed),
          std::to_string(reps), join_sizes(sizes)};
}

// The lines of `in`, each without a trailing '\r'.
std::vector<std::string> read_lines(std::istream& in) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(line);
  }
  return lines;
}

// The cell-row grammar, shared by resume and merge. Each line of `lines`
// after the meta row is one of:
//  - a row a previous resume repaired (a torn fragment closed with a
//    ",torn" marker): junk by construction, skipped;
//  - a cell row: 5 fields ending in the "end" sentinel, naming a size
//    index of `sizes`, that index's n and a rep below `reps`; handed to
//    on_cell(size_index, rep, value, value_text), where value_text is the
//    value field verbatim;
//  - the header row, tolerated only as the first line after the meta row;
//  - otherwise corrupt: rows are flushed whole, so only the final line
//    (one torn by an interrupted append) is skipped, and a bad row
//    anywhere else throws std::invalid_argument naming `path`.
template <typename OnCell>
void read_cell_rows(const std::vector<std::string>& lines,
                    const std::vector<std::size_t>& sizes, std::size_t reps,
                    const std::string& path, const OnCell& on_cell) {
  std::vector<std::string> fields;
  for (std::size_t k = 1; k < lines.size(); ++k) {
    const bool parsed = parse_csv_row(lines[k], fields);
    if (parsed && !fields.empty() && fields.back() == "torn") continue;
    std::size_t i = 0;
    std::size_t n = 0;
    std::size_t rep = 0;
    double value = 0.0;
    const bool well_formed =
        parsed && fields.size() == 5 && fields[4] == kCkptEnd &&
        parse_index(fields[0], i) && parse_index(fields[1], n) &&
        parse_index(fields[2], rep) && parse_double(fields[3], value) &&
        i < sizes.size() && sizes[i] == n && rep < reps;
    if (well_formed) {
      on_cell(i, rep, value, fields[3]);
      continue;
    }
    if (k == 1 && parsed && !fields.empty() && fields[0] == "size_index") {
      continue;
    }
    SFS_REQUIRE(k + 1 == lines.size(), "corrupt checkpoint row " +
                                           std::to_string(k) + " in " + path);
  }
}

// Restores completed cells from `path` into raw slots / the done mask.
// Returns true when the file existed with a valid meta row (the appender
// must not rewrite it).
bool load_checkpoint(const std::string& path,
                     const std::vector<std::size_t>& sizes, std::size_t reps,
                     std::uint64_t seed, ScalingSeries& series,
                     std::vector<char>& done) {
  std::ifstream in(path);
  if (!in) return false;
  const std::vector<std::string> lines = read_lines(in);
  if (lines.empty()) return false;

  std::vector<std::string> fields;
  SFS_REQUIRE(parse_csv_row(lines[0], fields) &&
                  fields == meta_row(sizes, reps, seed),
              "checkpoint file does not match this sweep "
              "(seed/reps/sizes differ): " +
                  path);
  read_cell_rows(lines, sizes, reps, path,
                 [&](std::size_t i, std::size_t rep, double value,
                     const std::string&) {
                   series.points[i].raw[rep] = value;
                   done[i * reps + rep] = 1;
                 });
  return true;
}

bool ends_with_newline(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in || in.tellg() <= 0) return true;  // empty: nothing to terminate
  in.seekg(-1, std::ios::end);
  char last = '\0';
  in.get(last);
  return last == '\n';
}

// Streams completed cells to the checkpoint file; shared by the workers.
class CheckpointWriter {
 public:
  CheckpointWriter(const std::string& path,
                   const std::vector<std::size_t>& sizes, std::size_t reps,
                   std::uint64_t seed, bool resumed)
      : out_(path, std::ios::app), path_(path) {
    SFS_REQUIRE(out_.good(), "cannot open checkpoint file: " + path);
    if (!resumed) {
      write_csv_row(out_, meta_row(sizes, reps, seed));
      write_csv_row(out_, {"size_index", "n", "rep", "value", kCkptEnd});
      out_.flush();
    } else if (!ends_with_newline(path)) {
      // The interrupted run died mid-row: close the torn fragment with a
      // ",torn" marker field so the first appended record does not fuse
      // with it, and so later loads can tell this repaired junk row from
      // genuine corruption (the loader skips rows ending in "torn").
      out_ << ",torn\n";
      out_.flush();
    }
  }

  void append(std::size_t i, std::size_t n, std::size_t rep, double value) {
    const base::MutexLock lock(mutex_);
    write_csv_row(out_, {std::to_string(i), std::to_string(n),
                         std::to_string(rep), format_value(value), kCkptEnd});
    out_.flush();  // whole rows only: a crash tears at most the last line
    // ofstream swallows I/O errors by default (badbit, no throw), so a
    // full disk would otherwise silently stop checkpointing for the rest
    // of a multi-hour run while the sweep exits 0 looking resumable.
    SFS_CHECK(out_.good(), "checkpoint write failed (I/O error or disk "
                           "full): " +
                               path_);
  }

 private:
  // The stream is written by the constructor (thread-safety analysis
  // exempts constructors — the object is not yet shared) and then only
  // through append(), under mutex_.
  base::Mutex mutex_;
  std::ofstream out_ SFS_GUARDED_BY(mutex_);
  std::string path_;
};

// ------------------------------------------------------------------ fold

// The shared fit domain and refit rule: OLS power law over the points
// whose mean is finite and positive. `included` (when non-null) receives
// the indices that entered the fit. Returns a default-constructed fit
// (count == 0, no fit) when fewer than two points qualify. fit_series and
// bootstrap_slope_ci's per-resample refit both route through here, so the
// bootstrap CI brackets exactly the statistic the series quotes
// (ci.point == fit.slope by construction, not by parallel maintenance of
// two filter copies).
stats::LinearFit fit_positive_means(std::span<const double> ns,
                                    std::span<const double> means,
                                    std::vector<std::size_t>* included) {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < means.size(); ++i) {
    if (std::isfinite(means[i]) && means[i] > 0.0) {
      xs.push_back(ns[i]);
      ys.push_back(means[i]);
      idx.push_back(i);
    }
  }
  if (included) *included = std::move(idx);
  if (xs.size() < 2) return {};  // default-constructed: has_fit()==false
  return stats::fit_power_law(xs, ys);
}

// Fits series.fit / weighted_fit / excluded from the folded summaries.
void fit_series(ScalingSeries& series) {
  const std::vector<double> ns = series.sizes();
  const std::vector<double> means = series.means();
  std::vector<std::size_t> included;
  series.fit = fit_positive_means(ns, means, &included);

  std::size_t next = 0;
  for (std::size_t i = 0; i < series.points.size(); ++i) {
    if (next < included.size() && included[next] == i) {
      ++next;
    } else {
      series.excluded.push_back(series.points[i].n);
    }
  }
  if (included.size() < 2) return;

  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> rel_err;  // stderr(mean) / mean, per included point
  for (const std::size_t i : included) {
    xs.push_back(ns[i]);
    ys.push_back(means[i]);
    rel_err.push_back(series.points[i].summary.stderr_mean / means[i]);
  }

  // Delta method: Var(log m) ≈ Var(m)/m², so weight = 1/rel_err². Points
  // with no measured spread borrow the smallest positive relative error
  // (they are at least as precise); if no point has one the weights are
  // uniform and the weighted fit coincides with OLS.
  double min_rel = 0.0;
  for (const double r : rel_err) {
    if (r > 0.0 && (min_rel == 0.0 || r < min_rel)) min_rel = r;
  }
  std::vector<double> ws(rel_err.size(), 1.0);
  if (min_rel > 0.0) {
    for (std::size_t i = 0; i < rel_err.size(); ++i) {
      const double r = rel_err[i] > 0.0 ? rel_err[i] : min_rel;
      ws[i] = 1.0 / (r * r);
    }
  }
  series.weighted_fit = stats::fit_power_law_weighted(xs, ys, ws);
}

// Shared cell runner for the full and sharded entry points: restores
// checkpointed cells, enumerates the pending cells this shard owns in the
// flattened (i * reps + r) task order, and measures them. The returned
// series holds raw values only (no summaries/fit) — the unsharded path
// folds it, the sharded path discards it (the checkpoint is the output).
// Invoke: (n, cell_seed, worker) -> double, shared by the plain and
// scratch-aware overloads.
template <typename Invoke>
std::size_t run_scaling_cells(const std::vector<std::size_t>& sizes,
                              std::size_t reps, std::uint64_t seed,
                              const ScalingOptions& options,
                              std::size_t shard_index,
                              std::size_t shard_count, const Invoke& invoke,
                              ScalingSeries& series) {
  SFS_REQUIRE(!sizes.empty(), "empty size sweep");
  SFS_REQUIRE(reps >= 1, "need at least one replication");
  SFS_REQUIRE(shard_count >= 1, "need at least one shard");
  SFS_REQUIRE(shard_index < shard_count,
              "shard index " + std::to_string(shard_index) +
                  " out of range for " + std::to_string(shard_count) +
                  " shard(s)");
  series.points.resize(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    series.points[i].n = sizes[i];
    series.points[i].raw.resize(reps);
  }

  // Restore completed cells, then enumerate the cells still to measure.
  // Each cell's seed is a pure function of (i, r), so the remaining cells
  // see exactly the seeds an uninterrupted run would have handed them.
  std::vector<char> done(sizes.size() * reps, 0);
  std::unique_ptr<CheckpointWriter> checkpoint;
  if (!options.checkpoint_path.empty()) {
    const bool resumed = load_checkpoint(options.checkpoint_path, sizes, reps,
                                         seed, series, done);
    checkpoint = std::make_unique<CheckpointWriter>(
        options.checkpoint_path, sizes, reps, seed, resumed);
  }
  // Shard ownership is a pure function of the flattened task index, so k
  // shards partition exactly the cells one process would enumerate — no
  // overlap, no gaps, and per-cell seeds unchanged.
  std::vector<std::size_t> pending;
  pending.reserve(done.size() / shard_count + 1);
  for (std::size_t task = 0; task < done.size(); ++task) {
    if (!done[task] && task % shard_count == shard_index) {
      pending.push_back(task);
    }
  }

  // Fan the whole size x replication grid out at once: sizes near the top
  // of the sweep dominate the cost, so scheduling the grid dynamically
  // keeps workers busy across size boundaries. Each cell's seed depends
  // only on (i, r), and each cell writes its own slot, so the series is
  // identical for any thread count.
  base::parallel_for(pending.size(), options.threads,
               [&](std::size_t idx, std::size_t worker) {
                 const std::size_t task = pending[idx];
                 const std::size_t i = task / reps;
                 const std::size_t r = task % reps;
                 const double value = invoke(
                     sizes[i],
                     rng::audited_stream_seed(seed, size_stream(i), r),
                     worker);
                 series.points[i].raw[r] = value;
                 if (checkpoint) checkpoint->append(i, sizes[i], r, value);
               });
  return pending.size();
}

template <typename Invoke>
ScalingSeries measure_scaling_impl(const std::vector<std::size_t>& sizes,
                                   std::size_t reps, std::uint64_t seed,
                                   const ScalingOptions& options,
                                   const Invoke& invoke) {
  ScalingSeries series;
  (void)run_scaling_cells(sizes, reps, seed, options, /*shard_index=*/0,
                          /*shard_count=*/1, invoke, series);
  for (auto& point : series.points) {
    point.summary = stats::summarize(point.raw);
  }

  fit_series(series);
  // Only CI a slope that exists: without a usable point fit, quoting an
  // interval for the "exponent" would dress up a non-measurement.
  if (options.bootstrap_replicates > 0 && series.has_fit()) {
    series.slope_ci = bootstrap_slope_ci(series, options.bootstrap_replicates);
  }
  return series;
}

}  // namespace

ScalingSeries measure_scaling(
    const std::vector<std::size_t>& sizes, std::size_t reps,
    std::uint64_t seed,
    const std::function<double(std::size_t, std::uint64_t)>& measure,
    const ScalingOptions& options) {
  return measure_scaling_impl(
      sizes, reps, seed, options,
      [&](std::size_t n, std::uint64_t cell_seed, std::size_t) {
        return measure(n, cell_seed);
      });
}

ScalingSeries measure_scaling(
    const std::vector<std::size_t>& sizes, std::size_t reps,
    std::uint64_t seed,
    const std::function<double(std::size_t, std::uint64_t,
                               gen::GenScratch&)>& measure,
    const ScalingOptions& options) {
  // One generator scratch per worker, as in sim/sweep's WorkerState.
  std::vector<gen::GenScratch> scratch(
      base::resolve_worker_count(options.threads));
  return measure_scaling_impl(
      sizes, reps, seed, options,
      [&](std::size_t n, std::uint64_t cell_seed, std::size_t worker) {
        return measure(n, cell_seed, scratch[worker]);
      });
}

std::size_t measure_scaling_shard(
    const std::vector<std::size_t>& sizes, std::size_t reps,
    std::uint64_t seed,
    const std::function<double(std::size_t, std::uint64_t,
                               gen::GenScratch&)>& measure,
    const ScalingOptions& options, std::size_t shard_index,
    std::size_t shard_count) {
  // The checkpoint is mandatory (it IS the shard's output — without it the
  // computed cells would be thrown away) and the raw series is discarded.
  SFS_REQUIRE(!options.checkpoint_path.empty(),
              "sharded sweeps require a checkpoint path: the per-shard "
              "checkpoint file is the shard's only output");
  std::vector<gen::GenScratch> scratch(
      base::resolve_worker_count(options.threads));
  ScalingSeries series;
  return run_scaling_cells(
      sizes, reps, seed, options, shard_index, shard_count,
      [&](std::size_t n, std::uint64_t cell_seed, std::size_t worker) {
        return measure(n, cell_seed, scratch[worker]);
      },
      series);
}

std::size_t merge_checkpoints(const std::vector<std::string>& inputs,
                              const std::string& output) {
  SFS_REQUIRE(!inputs.empty(), "merge_checkpoints needs at least one input");
  std::vector<std::string> canonical_meta;
  std::size_t reps = 0;
  std::vector<std::size_t> sizes;
  // (size_index, rep) -> value string, byte-for-byte as a shard recorded
  // it — values are never re-parsed and re-formatted, so the merged file
  // replays the exact bits the shards measured. std::map keeps the output
  // sorted by (size_index, rep).
  std::map<std::pair<std::size_t, std::size_t>, std::string> cells;

  for (const std::string& path : inputs) {
    std::ifstream in(path);
    SFS_REQUIRE(in.good(), "cannot open shard checkpoint: " + path);
    const std::vector<std::string> lines = read_lines(in);
    SFS_REQUIRE(!lines.empty(), "empty shard checkpoint: " + path);

    std::vector<std::string> fields;
    SFS_REQUIRE(parse_csv_row(lines[0], fields) && fields.size() == 5 &&
                    fields[0] == kCkptMagic && fields[1] == kCkptVersion,
                "not a scaling checkpoint: " + path);
    if (canonical_meta.empty()) {
      canonical_meta = fields;
      SFS_REQUIRE(parse_index(fields[3], reps) && reps >= 1,
                  "bad reps field in checkpoint meta: " + path);
      std::size_t start = 0;
      const std::string& joined = fields[4];
      while (start <= joined.size()) {
        const std::size_t sep = joined.find(';', start);
        const std::string token =
            joined.substr(start, sep == std::string::npos ? std::string::npos
                                                          : sep - start);
        std::size_t n = 0;
        SFS_REQUIRE(parse_index(token, n),
                    "bad sizes field in checkpoint meta: " + path);
        sizes.push_back(n);
        if (sep == std::string::npos) break;
        start = sep + 1;
      }
    } else {
      SFS_REQUIRE(fields == canonical_meta,
                  "shard checkpoints disagree on (seed, reps, sizes); "
                  "refusing to merge: " +
                      path);
    }

    read_cell_rows(lines, sizes, reps, path,
                   [&](std::size_t i, std::size_t rep, double,
                       const std::string& value_text) {
                     const auto [it, inserted] =
                         cells.emplace(std::make_pair(i, rep), value_text);
                     SFS_REQUIRE(inserted || it->second == value_text,
                                 "shards disagree on cell (size_index=" +
                                     std::to_string(i) +
                                     ", rep=" + std::to_string(rep) +
                                     "): " + path);
                   });
  }

  std::ofstream out(output, std::ios::trunc);
  SFS_REQUIRE(out.good(), "cannot open merged checkpoint for writing: " +
                              output);
  write_csv_row(out, canonical_meta);
  write_csv_row(out, {"size_index", "n", "rep", "value", kCkptEnd});
  for (const auto& [key, value] : cells) {
    write_csv_row(out, {std::to_string(key.first),
                        std::to_string(sizes[key.first]),
                        std::to_string(key.second), value, kCkptEnd});
  }
  out.flush();
  SFS_REQUIRE(out.good(), "merged checkpoint write failed: " + output);
  return cells.size();
}

stats::BootstrapCi bootstrap_slope_ci(const ScalingSeries& series,
                                      std::size_t replicates) {
  SFS_REQUIRE(!series.points.empty(), "empty series");
  // Without this, a no-fit series (e.g. one usable point plus mixed-sign
  // reps elsewhere) could still yield a finite interval — individual
  // resamples can be fittable even when the series is not — which would
  // be an error bar around a slope the series declares unmeasured.
  SFS_REQUIRE(series.has_fit(),
              "bootstrap_slope_ci needs a series with a usable fit "
              "(has_fit()); an interval for a slope that does not exist "
              "is not a measurement");
  std::vector<std::vector<double>> groups;
  std::vector<double> ns;
  groups.reserve(series.points.size());
  ns.reserve(series.points.size());
  for (const auto& p : series.points) {
    SFS_REQUIRE(!p.raw.empty(), "series point has no raw replications");
    groups.push_back(p.raw);
    ns.push_back(static_cast<double>(p.n));
  }

  // Refit over the resampled means through the same fit_positive_means
  // domain rule as the main fit; a resample that leaves fewer than two
  // fittable points (or a collapsed grid) scores NaN and is dropped by
  // the grouped-bootstrap percentile machinery.
  const auto slope_of = [&ns](std::span<const std::vector<double>> gs) {
    std::vector<double> means;
    means.reserve(gs.size());
    for (const auto& g : gs) means.push_back(stats::summarize(g).mean);
    const auto fit = fit_positive_means(ns, means, nullptr);
    return fit.ok() ? fit.slope : std::nan("");
  };

  rng::Rng rng(kBootstrapSeed);
  return stats::bootstrap_grouped_ci(groups, slope_of, replicates,
                                     kBootstrapAlpha, rng);
}

std::vector<std::size_t> geometric_sizes(std::size_t lo, std::size_t hi,
                                         std::size_t count) {
  SFS_REQUIRE(lo >= 1 && lo <= hi, "need 1 <= lo <= hi");
  SFS_REQUIRE(count >= 2, "need at least two sizes");
  std::vector<std::size_t> sizes;
  const double ratio = std::pow(static_cast<double>(hi) / static_cast<double>(lo),
                                1.0 / static_cast<double>(count - 1));
  double x = static_cast<double>(lo);
  for (std::size_t i = 0; i < count; ++i) {
    // Clamp: after count-1 inexact multiplications the final x can land a
    // hair above hi, and an unclamped round-up would make the grid
    // overshoot — then the `!= hi` endpoint patch below would append a
    // SMALLER value and break monotonicity.
    auto v = static_cast<std::size_t>(std::llround(x));
    if (v > hi) v = hi;
    if (sizes.empty() || v > sizes.back()) sizes.push_back(v);
    x *= ratio;
  }
  if (sizes.back() != hi) sizes.push_back(hi);
  return sizes;
}

}  // namespace sfs::sim

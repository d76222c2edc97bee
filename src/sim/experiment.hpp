// Unified experiment engine: the experiment spec, the shared flag
// vocabulary and the CLI layer behind the single `sfs_bench` binary.
//
// Every experiment (the paper claims e1-e6, e9, e10 and e12, the ablations
// a1-a3, the churn study d1) is an ExperimentSpec — name, one-line claim,
// parameter schema with typed defaults, capability set, and a run function
// — that its own translation unit returns; bench/experiments/catalog.cpp
// lists the specs in catalog order and sfs_bench passes that table to
// experiment_main, which offers
//
//   sfs_bench --list                      catalog of the experiments
//   sfs_bench --list-names                bare names, one per line (CI loop)
//   sfs_bench --run <name> [flags]        run one experiment
//
// with one flag vocabulary across all experiments: --sizes/--n, --reps,
// --seed, --threads, --quick, --large, --checkpoint <path>, --json <path>.
// Unknown or malformed flags exit 2 with usage; a flag an experiment does
// not support is rejected the same way — nothing is silently ignored.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "search/local_view.hpp"
#include "sim/report.hpp"

namespace sfs::sim {

/// One entry of an experiment's parameter schema: which shared CLI knob it
/// honors, the value type, the default, and what the knob means for this
/// experiment. Rendered by --list/--run usage and docs/EXPERIMENTS.md.
struct ParamSpec {
  std::string flag;           // e.g. "--sizes"
  std::string type;           // e.g. "size list", "count", "u64 seed"
  std::string default_value;  // human-readable default
  std::string description;    // what the knob controls here
};

/// Capability bits: which shared flags an experiment accepts beyond
/// --quick, --seed and --json, which every experiment takes. The CLI layer
/// rejects (exit 2) any flag whose bit is missing, so an experiment can
/// never silently discard an argument.
enum ExperimentCaps : unsigned {
  kCapGrid = 1u << 0,        // --large and --checkpoint: the large-n grid
                             // mode and the stream/resume of its cells
  kCapSizes = 1u << 1,       // --sizes/--n: override the size grid
  kCapReps = 1u << 2,        // --reps: override replication count
  kCapThreads = 1u << 3,     // --threads: worker count for the fan-out
  kCapSingleSize = 1u << 4,  // --n (or a one-element --sizes): experiments
                             // with one problem size; longer lists exit 2
  kCapPolicies = 1u << 5,  // --policies a,b,c: run only the named search
                           // policies (checked against the policy table,
                           // search/policy.hpp, before the run)
};

/// Parsed shared-flag values for one run. Flags the user did not pass are
/// left at their "unset" encoding (empty sizes, reps 0, has_* false) so
/// experiments can distinguish an override from a default.
struct ExperimentOptions {
  bool quick = false;
  bool large = false;
  std::vector<std::size_t> sizes;  // empty = experiment default
  std::size_t reps = 0;            // 0 = experiment default
  std::uint64_t seed = 0;
  bool has_seed = false;
  std::size_t threads = 0;  // meaningful only when has_threads
  bool has_threads = false;
  std::string checkpoint_path;
  std::string json_path;
  /// --policies names (comma-separated on the command line; empty = the
  /// experiment's default portfolio). Experiments pass this as the
  /// RunPlan/QueryEngine policy filter. Validation has checked that each
  /// name is in the policy table once; the run checks the model.
  std::vector<std::string> policies;
};

struct ExperimentSpec;

/// Everything a run function receives: the parsed options, the
/// structured-results emitter (console + optional JSONL sink), and seed /
/// default helpers.
struct ExperimentContext {
  const ExperimentSpec* spec = nullptr;
  ExperimentOptions options;
  ResultsEmitter* emitter = nullptr;

  [[nodiscard]] std::ostream& console() const {
    return emitter->console();
  }

  /// The run's base seed: --seed when given, else the spec's default
  /// (which is derived from the experiment name unless pinned — see
  /// experiment_seed()).
  [[nodiscard]] std::uint64_t base_seed() const;

  /// An independent named substream of the base seed, for experiments
  /// that need several internal seeds (a sweep stream, a detail-table
  /// stream, a per-preset stream, ...). Replaces the old hand-picked
  /// per-bench constants (0xE1, 0x1E1, 0x7E7, ...): streams are derived
  /// from (base seed, stream name) through rng::derive_stream_seed, so
  /// they cannot collide by hand-picking.
  [[nodiscard]] std::uint64_t stream_seed(std::string_view stream) const;

  /// CLI override helpers: the user's value when given, else `fallback`.
  [[nodiscard]] std::size_t reps_or(std::size_t fallback) const {
    return options.reps > 0 ? options.reps : fallback;
  }
  [[nodiscard]] std::vector<std::size_t> sizes_or(
      std::vector<std::size_t> fallback) const {
    return options.sizes.empty() ? std::move(fallback) : options.sizes;
  }
  /// Single-size experiments (kCapSingleSize): the --n value, or
  /// `fallback`. Validation guarantees at most one entry here.
  [[nodiscard]] std::size_t n_or(std::size_t fallback) const {
    return options.sizes.empty() ? fallback : options.sizes.front();
  }
  /// Worker-count argument for the replication harnesses: --threads when
  /// given, else 0 (the shared pool, the historical bench default).
  [[nodiscard]] std::size_t threads() const {
    return options.has_threads ? options.threads : 0;
  }
};

/// An experiment scenario: one entry of the sfs_bench catalog.
struct ExperimentSpec {
  std::string name;   // short id: "e1", "a2", "d1_churn", ...
  std::string title;  // one-line description for --list
  std::string claim;  // the paper claim / reference the run regenerates

  /// Base seed when --seed is absent. 0 means "derive from the name"
  /// (experiment_seed(name)); a nonzero value pins a legacy seed —
  /// e1/e2 pin theirs so grid outputs and on-disk checkpoint meta rows
  /// stay bit-compatible with the per-experiment bench binaries that
  /// preceded sfs_bench. No two catalog entries may resolve to the same
  /// default seed (tests/test_experiment.cpp, ExperimentTable).
  std::uint64_t default_seed = 0;

  unsigned caps = 0;  // ExperimentCaps bits

  /// The model every --policies name must belong to (kCapPolicies);
  /// unset, either model's names are accepted.
  std::optional<search::KnowledgeModel> policy_model;

  std::vector<ParamSpec> params;

  /// Runs the experiment; returns the process exit code (0 = success,
  /// 1 = a result contract failed). Usage errors never reach run().
  int (*run)(ExperimentContext&) = nullptr;

  /// The seed a default run of this spec uses (default_seed, or the
  /// name-derived seed when default_seed == 0).
  [[nodiscard]] std::uint64_t resolved_default_seed() const;
};

/// Deterministic name-derived experiment seed: mix64(fnv1a64(name)).
/// Distinct names get distinct seeds with overwhelming probability, so
/// two experiments cannot alias their RNG streams by hand-picking nearby
/// constants.
[[nodiscard]] std::uint64_t experiment_seed(std::string_view name) noexcept;

/// Named substream of a base seed (see ExperimentContext::stream_seed):
/// rng::derive_stream_seed(base, mix64(fnv1a64(stream)), 0), routed
/// through the SFS_RNG_AUDIT recorder (throws std::logic_error on a
/// cross-triple collision when the audit is enabled).
[[nodiscard]] std::uint64_t experiment_stream_seed(std::uint64_t base,
                                                   std::string_view stream);

/// Parsed top-level request of the driver CLI.
struct CliRequest {
  bool list = false;
  bool list_names = false;
  std::string run_name;  // empty unless --run given
  ExperimentOptions options;
};

/// Parses a whole token as an unsigned integer: decimal, or hexadecimal
/// with a 0x/0X prefix. False (with `out` unspecified) on an empty token,
/// any character that is not a digit of the base, or overflow. The
/// driver's number parser, shared with sfsearch_cli.
[[nodiscard]] bool parse_u64(const std::string& text, std::uint64_t& out);

/// parse_u64 into a std::size_t.
[[nodiscard]] bool parse_size(const std::string& text, std::size_t& out);

/// Parses a whole token as a double with std::from_chars (locale-
/// independent, no leading whitespace or '+'). False (with `out`
/// unspecified) on an empty token, any trailing character, or a value out
/// of range. Shared by sfsearch_cli, the examples and the checkpoint
/// reader.
[[nodiscard]] bool parse_double(const std::string& text, double& out);

/// Reports a command-line argument that is not a number of the expected
/// kind: prints "error: <what>: '<token>' is not a valid number" to
/// std::cerr and returns exit status 1. Shared by sfsearch_cli and the
/// examples.
[[nodiscard]] int bad_number(const std::string& what,
                             const std::string& token);

/// Parses a comma-separated list of non-empty names ("rw,degree-greedy")
/// into `out`; false (with `out` unspecified) on an empty string or an
/// empty token. The --policies value parser, shared with sfsearch_cli.
/// Each CLI checks the names against the policy table afterwards
/// (search::policy_selection_error).
[[nodiscard]] bool parse_name_list(const std::string& text,
                                   std::vector<std::string>& out);

/// Parses driver arguments (argv[1..]) into a CliRequest. Returns false
/// with a diagnostic in `error` on an unknown flag, a flag missing its
/// value, a malformed number, or a missing/duplicate action.
[[nodiscard]] bool parse_experiment_cli(const std::vector<std::string>& args,
                                        CliRequest& out, std::string& error);

/// Validates parsed options against a spec's capability set. Returns
/// false with a diagnostic when a flag the experiment does not support
/// was passed, when a --policies name is not in the policy table, is
/// repeated or is of another model than the spec's policy_model, or when
/// --checkpoint is used outside a grid mode (--large/--quick).
[[nodiscard]] bool validate_experiment_options(const ExperimentSpec& spec,
                                               const ExperimentOptions& options,
                                               std::string& error);

/// Prints the driver usage summary (and, when `spec` is non-null, that
/// experiment's supported flags and parameter schema).
void print_experiment_usage(std::ostream& out, const ExperimentSpec* spec);

/// The sfs_bench main: parse, dispatch --list/--list-names/--run over
/// `experiments`, which --list prints in the given order.
/// Exit codes: 0 success, 1 experiment result-contract failure or runtime
/// error, 2 usage error.
[[nodiscard]] int experiment_main(int argc, char** argv,
                                  std::span<const ExperimentSpec> experiments);

}  // namespace sfs::sim

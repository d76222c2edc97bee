// Unified experiment engine: a registry of named experiment scenarios plus
// the shared CLI layer behind the single `sfs_bench` driver.
//
// Every experiment (e1-e12 the paper claims, a1-a3 the ablations, d1 the
// churn study) registers an ExperimentSpec — name, one-line claim,
// parameter schema with typed defaults, capability set, and a run
// function — via a static ExperimentRegistrar in its own translation
// unit. The driver then offers
//
//   sfs_bench --list                      catalog of registered experiments
//   sfs_bench --list-names                bare names, one per line (CI loop)
//   sfs_bench --run <name> [flags]        run one experiment
//
// with one flag vocabulary across all experiments: --sizes/--n, --reps,
// --seed, --threads, --quick, --large, --checkpoint <path>, --json <path>.
// Unknown or malformed flags exit 2 with usage; a flag an experiment does
// not support is rejected the same way — nothing is silently ignored.
// Adding a scenario is a ~30-line registration, not a new binary.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

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

/// Capability bits: which shared flags an experiment accepts. The CLI
/// layer rejects (exit 2) any flag whose bit is missing, so an experiment
/// can never silently discard an argument.
enum ExperimentCaps : unsigned {
  kCapQuick = 1u << 0,       // --quick: reduced smoke-size budget
  kCapLarge = 1u << 1,       // --large: the large-n grid mode
  kCapCheckpoint = 1u << 2,  // --checkpoint: stream/resume sweep cells
  kCapSizes = 1u << 3,       // --sizes/--n: override the size grid
  kCapReps = 1u << 4,        // --reps: override replication count
  kCapSeed = 1u << 5,        // --seed: override the base seed
  kCapThreads = 1u << 6,     // --threads: worker count for the fan-out
  kCapSingleSize = 1u << 7,  // --n (or a one-element --sizes): experiments
                             // with one problem size; longer lists exit 2
  kCapPolicies = 1u << 8,  // --policies a,b,c: run only the named search
                           // policies (resolved against the policy
                           // registry, search/policy.hpp)
  kCapShard = 1u << 9,  // --shard i/k: compute only shard i of the grid
                        // (sim::measure_scaling_shard); requires a grid
                        // mode and --checkpoint
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
  /// --shard i/k: this process owns shard `shard_index` of `shard_count`
  /// over the sweep grid (meaningful only when has_shard; validation
  /// additionally requires kCapShard, a grid mode and --checkpoint).
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  bool has_shard = false;
  /// --policies names (comma-separated on the command line; empty = the
  /// experiment's default portfolio). Experiments pass this as the
  /// RunPlan/QueryEngine policy filter; unknown names fail inside the run
  /// with the registry's diagnostic.
  std::vector<std::string> policies;
};

struct ExperimentSpec;

/// Everything a registered run function receives: the parsed options, the
/// structured-results emitter (console + optional JSONL sink), and seed /
/// default helpers.
struct ExperimentContext {
  const ExperimentSpec* spec = nullptr;
  ExperimentOptions options;
  ResultsEmitter* emitter = nullptr;

  [[nodiscard]] std::ostream& console() const {
    return emitter->console();
  }

  /// The run's base seed: --seed when given, else the spec's registered
  /// default (which is derived from the experiment name unless pinned —
  /// see experiment_seed()).
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

/// A registered experiment scenario.
struct ExperimentSpec {
  std::string name;   // short id: "e1", "a2", "d1_churn", ...
  std::string title;  // one-line description for --list
  std::string claim;  // the paper claim / reference the run regenerates

  /// Base seed when --seed is absent. 0 means "derive from the name"
  /// (experiment_seed(name)); a nonzero value pins a legacy seed —
  /// e1/e2 pin theirs so grid outputs and on-disk checkpoint meta rows
  /// stay bit-compatible with the pre-registry bench binaries.
  std::uint64_t default_seed = 0;

  unsigned caps = kCapQuick | kCapSeed;

  std::vector<ParamSpec> params;

  /// Runs the experiment; returns the process exit code (0 = success,
  /// 1 = a result contract failed). Usage errors never reach run().
  std::function<int(ExperimentContext&)> run;

  /// The seed a default run of this spec uses (default_seed, or the
  /// name-derived seed when default_seed == 0).
  [[nodiscard]] std::uint64_t resolved_default_seed() const;
};

/// Deterministic name-derived experiment seed: mix64(fnv1a64(name)).
/// Distinct registered names get distinct seeds with overwhelming
/// probability, and the registry verifies uniqueness at registration, so
/// two experiments can no longer alias their RNG streams by hand-picking
/// nearby constants.
[[nodiscard]] std::uint64_t experiment_seed(std::string_view name) noexcept;

/// Named substream of a base seed (see ExperimentContext::stream_seed):
/// rng::derive_stream_seed(base, mix64(fnv1a64(stream)), 0), routed
/// through the SFS_RNG_AUDIT recorder (throws std::logic_error on a
/// cross-triple collision when the audit is enabled).
[[nodiscard]] std::uint64_t experiment_stream_seed(std::uint64_t base,
                                                   std::string_view stream);

/// The experiment registry. The process-wide instance() is populated by
/// static ExperimentRegistrar objects; tests construct their own instances
/// to exercise registration rules in isolation.
class ExperimentRegistry {
 public:
  /// Registers a spec. Throws std::invalid_argument on an empty name or a
  /// missing run function, a duplicate name, or a resolved default seed
  /// already claimed by another experiment (the "cannot collide" rule).
  void add(ExperimentSpec spec);

  /// Looks up a spec by name; nullptr when absent.
  [[nodiscard]] const ExperimentSpec* find(std::string_view name) const;

  /// All specs in catalog order: e* before a*, numerically within a
  /// family ("e2" < "e10"), other names alphabetically last.
  [[nodiscard]] std::vector<const ExperimentSpec*> all() const;

  [[nodiscard]] std::size_t size() const noexcept { return specs_.size(); }

  static ExperimentRegistry& instance();

 private:
  std::vector<ExperimentSpec> specs_;
};

/// Registers a spec with ExperimentRegistry::instance() at static
/// initialization. Define one per experiment translation unit.
struct ExperimentRegistrar {
  explicit ExperimentRegistrar(ExperimentSpec spec);
};

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
/// Membership in the policy registry is checked by the run itself
/// (search/resolve_policies), not the CLI layer.
[[nodiscard]] bool parse_name_list(const std::string& text,
                                   std::vector<std::string>& out);

/// Parses driver arguments (argv[1..]) into a CliRequest. Returns false
/// with a diagnostic in `error` on an unknown flag, a flag missing its
/// value, a malformed number, or a missing/duplicate action.
[[nodiscard]] bool parse_experiment_cli(const std::vector<std::string>& args,
                                        CliRequest& out, std::string& error);

/// Validates parsed options against a spec's capability set. Returns
/// false with a diagnostic when a flag the experiment does not support
/// was passed, or when --checkpoint is used outside a grid mode
/// (--large/--quick) for experiments that checkpoint their sweeps.
[[nodiscard]] bool validate_experiment_options(const ExperimentSpec& spec,
                                               const ExperimentOptions& options,
                                               std::string& error);

/// Prints the driver usage summary (and, when `spec` is non-null, that
/// experiment's supported flags and parameter schema).
void print_experiment_usage(std::ostream& out, const ExperimentSpec* spec);

/// The sfs_bench main: parse, dispatch --list/--list-names/--run.
/// Exit codes: 0 success, 1 experiment result-contract failure or runtime
/// error, 2 usage error.
[[nodiscard]] int experiment_main(int argc, char** argv);

}  // namespace sfs::sim

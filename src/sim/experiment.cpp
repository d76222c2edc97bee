#include "sim/experiment.hpp"

#include <algorithm>
#include <charconv>
#include <iostream>

#include "base/parallel.hpp"
#include "rng/random.hpp"
#include "rng/stream_audit.hpp"
#include "search/policy.hpp"
#include "sim/table.hpp"

namespace sfs::sim {

namespace {

std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

bool parse_size_list(const std::string& text, std::vector<std::size_t>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const std::string tok =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    std::size_t v = 0;
    if (!parse_size(tok, v) || v == 0) return false;
    if (!out.empty() && v <= out.back()) return false;  // strictly increasing
    out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out.empty();
}

std::string flag_names(unsigned caps) {
  std::string out = "--quick";
  const auto append = [&](unsigned bit, const char* name) {
    if (caps & bit) {
      out += ' ';
      out += name;
    }
  };
  append(kCapGrid, "--large --checkpoint");
  append(kCapSizes, "--sizes/--n");
  append(kCapSingleSize, "--n");
  append(kCapReps, "--reps");
  out += " --seed";
  append(kCapThreads, "--threads");
  append(kCapPolicies, "--policies");
  out += " --json";
  return out;
}

}  // namespace

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  int base = 10;
  std::size_t start = 0;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    start = 2;
  }
  const char* first = text.data() + start;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out, base);
  return ec == std::errc{} && ptr == last;
}

bool parse_size(const std::string& text, std::size_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(text, v)) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  return ec == std::errc{} && ptr == last;
}

int bad_number(const std::string& what, const std::string& token) {
  std::cerr << "error: " << what << ": '" << token
            << "' is not a valid number\n";
  return 1;
}

bool parse_name_list(const std::string& text, std::vector<std::string>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const std::string tok =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (tok.empty()) return false;
    out.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out.empty();
}

std::uint64_t experiment_seed(std::string_view name) noexcept {
  return rng::mix64(fnv1a64(name));
}

std::uint64_t experiment_stream_seed(std::uint64_t base,
                                     std::string_view stream) {
  // Audited so that SFS_RNG_AUDIT=1 covers these name-derived streams —
  // the direct replacement for the hand-picked per-bench constants whose
  // aliasing the audit exists to catch — alongside the harness tags.
  return rng::audited_stream_seed(base, rng::mix64(fnv1a64(stream)),
                                  /*rep=*/0);
}

std::uint64_t ExperimentSpec::resolved_default_seed() const {
  return default_seed != 0 ? default_seed : experiment_seed(name);
}

std::uint64_t ExperimentContext::base_seed() const {
  return options.has_seed ? options.seed : spec->resolved_default_seed();
}

std::uint64_t ExperimentContext::stream_seed(std::string_view stream) const {
  return experiment_stream_seed(base_seed(), stream);
}

bool parse_experiment_cli(const std::vector<std::string>& args,
                          CliRequest& out, std::string& error) {
  out = CliRequest{};
  bool has_action = false;
  const auto value_of = [&](std::size_t& i, std::string& value) {
    if (i + 1 >= args.size()) {
      error = "flag " + args[i] + " requires a value";
      return false;
    }
    value = args[++i];
    return true;
  };
  // A repeated value flag silently overriding the earlier occurrence is
  // the argv-discarding bug class this parser exists to eliminate.
  const auto once = [&](bool already_set, const std::string& flag) {
    if (already_set) error = "flag " + flag + " given more than once";
    return !already_set;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string value;
    if (arg == "--list") {
      out.list = true;
      has_action = true;
    } else if (arg == "--list-names") {
      out.list_names = true;
      has_action = true;
    } else if (arg == "--run") {
      if (!once(!out.run_name.empty(), arg)) return false;
      if (!value_of(i, out.run_name)) return false;
      has_action = true;
    } else if (arg == "--quick") {
      out.options.quick = true;
    } else if (arg == "--large") {
      out.options.large = true;
    } else if (arg == "--sizes" || arg == "--n") {
      if (!once(!out.options.sizes.empty(), "--sizes/--n")) return false;
      if (!value_of(i, value)) return false;
      if (arg == "--n") {
        std::size_t n = 0;
        if (!parse_size(value, n) || n == 0) {
          error = "--n expects a positive integer, got '" + value + "'";
          return false;
        }
        out.options.sizes = {n};
      } else if (!parse_size_list(value, out.options.sizes)) {
        error = "--sizes expects a strictly increasing comma-separated "
                "list of positive integers, got '" +
                value + "'";
        return false;
      }
    } else if (arg == "--reps") {
      if (!once(out.options.reps > 0, arg)) return false;
      if (!value_of(i, value)) return false;
      if (!parse_size(value, out.options.reps) || out.options.reps == 0) {
        error = "--reps expects a positive integer, got '" + value + "'";
        return false;
      }
    } else if (arg == "--seed") {
      if (!once(out.options.has_seed, arg)) return false;
      if (!value_of(i, value)) return false;
      if (!parse_u64(value, out.options.seed)) {
        error = "--seed expects a decimal or 0x-hex integer, got '" + value +
                "'";
        return false;
      }
      out.options.has_seed = true;
    } else if (arg == "--threads") {
      if (!once(out.options.has_threads, arg)) return false;
      if (!value_of(i, value)) return false;
      if (!parse_size(value, out.options.threads) ||
          out.options.threads > base::kMaxWorkers) {
        error = "--threads expects an integer from 0 (shared pool) to " +
                std::to_string(base::kMaxWorkers) + ", got '" + value + "'";
        return false;
      }
      out.options.has_threads = true;
    } else if (arg == "--policies") {
      if (!once(!out.options.policies.empty(), arg)) return false;
      if (!value_of(i, value)) return false;
      if (!parse_name_list(value, out.options.policies)) {
        error = "--policies expects a comma-separated list of policy "
                "names, got '" +
                value + "'";
        return false;
      }
    } else if (arg == "--checkpoint") {
      if (!once(!out.options.checkpoint_path.empty(), arg)) return false;
      if (!value_of(i, out.options.checkpoint_path)) return false;
      if (out.options.checkpoint_path.empty()) {
        // An empty path reads back as "flag absent" — a script whose
        // $CKPT variable is unset would run a multi-hour grid with no
        // checkpointing and exit 0.
        error = "--checkpoint requires a non-empty path";
        return false;
      }
    } else if (arg == "--json") {
      if (!once(!out.options.json_path.empty(), arg)) return false;
      if (!value_of(i, out.options.json_path)) return false;
      if (out.options.json_path.empty()) {
        error = "--json requires a non-empty path";
        return false;
      }
    } else {
      error = "unknown flag: " + arg;
      return false;
    }
  }
  if (!has_action) {
    error = "one of --list, --list-names or --run <name> is required";
    return false;
  }
  if (out.list && out.list_names) {
    error = "--list and --list-names are mutually exclusive";
    return false;
  }
  if ((out.list || out.list_names) && !out.run_name.empty()) {
    error = "--list/--list-names cannot be combined with --run";
    return false;
  }
  return true;
}

bool validate_experiment_options(const ExperimentSpec& spec,
                                 const ExperimentOptions& options,
                                 std::string& error) {
  const auto reject = [&](const char* flag) {
    error = "experiment '" + spec.name + "' does not support " + flag +
            " (supported: " + flag_names(spec.caps) + ")";
    return false;
  };
  if (options.large && !(spec.caps & kCapGrid)) return reject("--large");
  if (!options.checkpoint_path.empty() && !(spec.caps & kCapGrid)) {
    return reject("--checkpoint");
  }
  if (!options.sizes.empty() &&
      !(spec.caps & (kCapSizes | kCapSingleSize))) {
    return reject("--sizes/--n");
  }
  // Single-size experiments take one n; silently running only part of a
  // requested size list would be the argv-discarding bug class this CLI
  // exists to eliminate.
  if (options.sizes.size() > 1 && !(spec.caps & kCapSizes)) {
    error = "experiment '" + spec.name +
            "' takes a single size (--n N), not a --sizes list";
    return false;
  }
  if (options.reps > 0 && !(spec.caps & kCapReps)) return reject("--reps");
  if (options.has_threads && !(spec.caps & kCapThreads)) {
    return reject("--threads");
  }
  if (!options.policies.empty()) {
    if (!(spec.caps & kCapPolicies)) return reject("--policies");
    const std::string policy_error =
        search::policy_selection_error(options.policies, spec.policy_model);
    if (!policy_error.empty()) {
      error = "experiment '" + spec.name + "': " + policy_error;
      return false;
    }
  }
  // Checkpointing streams sweep cells, which only the grid modes produce;
  // silently ignoring the flag elsewhere would run a sweep with no
  // checkpoint the user explicitly asked for (the generalized form of the
  // old "--quick/--checkpoint require --large" rule).
  if (!options.checkpoint_path.empty() && !options.large && !options.quick) {
    error = "experiment '" + spec.name +
            "': --checkpoint applies to the grid modes (pass --large or "
            "--quick)";
    return false;
  }
  return true;
}

void print_experiment_usage(std::ostream& out, const ExperimentSpec* spec) {
  out << "usage:\n"
         "  sfs_bench --list                 the experiment catalog\n"
         "  sfs_bench --list-names           bare experiment names, one per "
         "line\n"
         "  sfs_bench --run <name> [flags]   run one experiment\n"
         "flags: [--quick] [--large] [--sizes a,b,c | --n N] [--reps R]\n"
         "       [--seed S] [--threads T] [--policies a,b,c]\n"
         "       [--checkpoint <path>] [--json <path>]\n";
  if (spec != nullptr) {
    out << "\nexperiment '" << spec->name << "': " << spec->title << "\n"
        << "supported flags: " << flag_names(spec->caps) << "\n";
    if (!spec->params.empty()) {
      Table t("parameters", {"flag", "type", "default", "meaning"});
      for (const auto& p : spec->params) {
        t.row().cell(p.flag).cell(p.type).cell(p.default_value).cell(
            p.description);
      }
      t.print(out);
    }
  }
}

int experiment_main(int argc, char** argv,
                    std::span<const ExperimentSpec> experiments) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  CliRequest req;
  std::string error;
  if (!parse_experiment_cli(args, req, error)) {
    std::cerr << "error: " << error << "\n";
    print_experiment_usage(std::cerr, nullptr);
    return 2;
  }
  if (req.list_names) {
    for (const auto& spec : experiments) std::cout << spec.name << "\n";
    return 0;
  }
  if (req.list) {
    Table t("experiments (" + std::to_string(experiments.size()) + ")",
            {"name", "title", "flags", "claim"});
    for (const auto& spec : experiments) {
      t.row()
          .cell(spec.name)
          .cell(spec.title)
          .cell(flag_names(spec.caps))
          .cell(spec.claim);
    }
    t.print(std::cout);
    std::cout << "\nrun one with: sfs_bench --run <name> [--quick] "
                 "[--json out.jsonl]\n";
    return 0;
  }
  const auto found = std::find_if(
      experiments.begin(), experiments.end(),
      [&](const ExperimentSpec& s) { return s.name == req.run_name; });
  if (found == experiments.end()) {
    std::cerr << "error: unknown experiment '" << req.run_name
              << "' (see sfs_bench --list)\n";
    return 2;
  }
  const ExperimentSpec* spec = &*found;
  if (!validate_experiment_options(*spec, req.options, error)) {
    std::cerr << "error: " << error << "\n";
    print_experiment_usage(std::cerr, spec);
    return 2;
  }
  ResultsEmitter emitter;
  try {
    if (!req.options.json_path.empty()) {
      emitter.open_jsonl(req.options.json_path);
    }
    ExperimentContext ctx{spec, req.options, &emitter};
    return spec->run(ctx);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace sfs::sim

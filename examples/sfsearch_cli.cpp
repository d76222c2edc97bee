// sfsearch_cli — command-line driver over the library's file format.
//
//   sfsearch_cli generate <model> <n> <out.graph> [seed]
//       model: mori[:p] | merged-mori[:p[,m]] | cf[:alpha] | ba[:m]
//              | config[:k]
//       an omitted parameter takes its default; an empty or surplus one
//       is an error.
//   sfsearch_cli stats <in.graph> [--json]
//       structural report: degrees, components, distances and the
//       power-law fit. --json emits one machine-readable JSON object
//       instead of the table (sim/json).
//   sfsearch_cli search <in.graph> <start> <target> [weak|strong]
//                [--policies a,b,c]
//       runs the portfolio from <start> (1-based paper ids); --policies
//       selects policies by name (default: the model's full portfolio).
//       The model and --policies may each be given once.
//   sfsearch_cli policies [--list|--json]
//       prints the policy table (name, model, description); --json
//       emits one JSON object per policy (sim/json), matching
//       sfs_bench --list.
//   sfsearch_cli bound <p> <n>
//       prints the Theorem 1 lower-bound estimate for finding vertex n.
//
// Exit status: 0 on success, 1 on usage error (including a malformed
// number), 2 on runtime failure.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "core/lower_bound.hpp"
#include "core/theory.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/config_model.hpp"
#include "gen/cooper_frieze.hpp"
#include "gen/mori.hpp"
#include "graph/algorithms.hpp"
#include "graph/degree.hpp"
#include "graph/io.hpp"
#include "search/policy.hpp"
#include "search/runner.hpp"
#include "sim/experiment.hpp"
#include "sim/json.hpp"
#include "sim/table.hpp"
#include "stats/powerlaw.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::sim::bad_number;

int usage() {
  std::cerr
      << "usage:\n"
         "  sfsearch_cli generate <model> <n> <out.graph> [seed]\n"
         "      model: mori[:p] merged-mori[:p,m] cf[:alpha] ba[:m] "
         "config[:k]\n"
         "  sfsearch_cli stats <in.graph> [--json]\n"
         "  sfsearch_cli search <in.graph> <start> <target> [weak|strong]"
         " [--policies a,b,c]\n"
         "  sfsearch_cli policies [--list|--json]\n"
         "  sfsearch_cli bound <p> <n>\n";
  return 1;
}

/// Splits "name:a,b" into the name and numeric parameters.
struct ModelSpec {
  std::string name;
  std::vector<double> params;
  std::vector<std::string> tokens;  // params as written
};

/// The models `generate` builds, with the number of parameters each reads.
struct ModelArity {
  const char* name;
  std::size_t params;
};
constexpr ModelArity kModels[] = {{"mori", 1}, {"merged-mori", 2}, {"cf", 1},
                                  {"ba", 1},   {"config", 1}};

/// Parses `arg` into `spec`; false with the offending token in `bad` when
/// a parameter is not a number (an empty `bad` is an empty parameter).
bool parse_model(const std::string& arg, ModelSpec& spec, std::string& bad) {
  const auto colon = arg.find(':');
  spec.name = arg.substr(0, colon);
  if (colon != std::string::npos) {
    std::string rest = arg.substr(colon + 1);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
      const auto comma = rest.find(',', pos);
      const std::string tok = rest.substr(pos, comma - pos);
      double value = 0.0;
      if (!sfs::sim::parse_double(tok, value)) {
        bad = tok;
        return false;
      }
      spec.params.push_back(value);
      spec.tokens.push_back(tok);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  return true;
}

double param(const ModelSpec& spec, std::size_t i, double fallback) {
  return i < spec.params.size() ? spec.params[i] : fallback;
}

/// Parameter i as a count (`fallback` when absent); false when it is not
/// a whole number in [0, 2^53], which a size_t cast could not represent.
bool count_param(const ModelSpec& spec, std::size_t i, std::size_t fallback,
                 std::size_t& out) {
  if (i >= spec.params.size()) {
    out = fallback;
    return true;
  }
  const double v = spec.params[i];
  if (!(v >= 0.0 && v <= 0x1p53 && v == std::floor(v))) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

int cmd_generate(const std::vector<std::string>& args) {
  if (args.size() < 3 || args.size() > 4) return usage();
  ModelSpec spec;
  std::string bad;
  if (!parse_model(args[0], spec, bad)) {
    if (bad.empty()) {
      std::cerr << "error: empty model parameter in '" << args[0] << "'\n";
      return 1;
    }
    return bad_number("model parameter", bad);
  }
  const auto* model =
      std::find_if(std::begin(kModels), std::end(kModels),
                   [&](const ModelArity& m) { return spec.name == m.name; });
  if (model == std::end(kModels)) {
    std::cerr << "error: unknown model: " << spec.name << "\n";
    return 1;
  }
  if (spec.params.size() > model->params) {
    std::cerr << "error: model " << spec.name << " takes at most "
              << model->params << " parameter"
              << (model->params == 1 ? "" : "s") << ", got "
              << spec.params.size() << "\n";
    return 1;
  }
  std::size_t n = 0;
  if (!sfs::sim::parse_size(args[1], n)) return bad_number("<n>", args[1]);
  const std::string out = args[2];
  std::uint64_t seed = 1;
  if (args.size() > 3 && !sfs::sim::parse_u64(args[3], seed)) {
    return bad_number("[seed]", args[3]);
  }
  Rng rng(seed);

  Graph g;
  if (spec.name == "mori") {
    g = sfs::gen::mori_tree(n, sfs::gen::MoriParams{param(spec, 0, 0.5)},
                            rng);
  } else if (spec.name == "merged-mori") {
    std::size_t m = 0;
    if (!count_param(spec, 1, 2, m)) {
      return bad_number("model count parameter", spec.tokens[1]);
    }
    g = sfs::gen::merged_mori_graph(
        n, m, sfs::gen::MoriParams{param(spec, 0, 0.5)}, rng);
  } else if (spec.name == "cf") {
    sfs::gen::CooperFriezeParams params;
    params.alpha = param(spec, 0, 0.5);
    g = sfs::gen::cooper_frieze(n, params, rng).graph;
  } else if (spec.name == "ba") {
    std::size_t m = 0;
    if (!count_param(spec, 0, 2, m)) {
      return bad_number("model count parameter", spec.tokens[0]);
    }
    g = sfs::gen::barabasi_albert(
        n, sfs::gen::BarabasiAlbertParams{m}, rng);
  } else {  // config, the last of kModels
    g = sfs::gen::power_law_configuration_graph(
        n, sfs::gen::PowerLawSequenceParams{param(spec, 0, 2.3), 1, 0},
        sfs::gen::ConfigModelOptions{false}, rng);
  }
  sfs::graph::save(out, g);
  std::cout << "wrote " << out << ": " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges (seed " << seed << ")\n";
  return 0;
}

int cmd_stats(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) return usage();
  const bool as_json = args.size() == 2;
  if (as_json && args[1] != "--json") return usage();
  const Graph g = sfs::graph::load(args[0]);
  Rng rng(1);

  sfs::sim::Table t("graph statistics: " + args[0], {"metric", "value"});
  sfs::sim::JsonObjectWriter json;
  json.str_field("graph", args[0]);
  t.row().cell("vertices").integer(g.num_vertices());
  json.int_field("vertices", g.num_vertices());
  t.row().cell("edges").integer(g.num_edges());
  json.int_field("edges", g.num_edges());
  const double mean_deg =
      sfs::graph::mean_degree(g, sfs::graph::DegreeKind::kUndirected);
  t.row().cell("mean degree").num(mean_deg, 3);
  json.num_field("mean_degree", mean_deg);
  const auto max_deg =
      sfs::graph::max_degree(g, sfs::graph::DegreeKind::kUndirected);
  t.row().cell("max degree").integer(max_deg);
  json.int_field("max_degree", max_deg);
  const auto comps = sfs::graph::connected_components(g);
  t.row().cell("components").integer(comps.count);
  json.int_field("components", comps.count);
  if (comps.count == 1 && g.num_vertices() > 1) {
    const auto st = sfs::graph::sample_distances(g, 8, rng);
    const auto diam = sfs::graph::pseudo_diameter(g);
    t.row().cell("mean distance (sampled)").num(st.mean_distance, 2);
    t.row().cell("pseudo-diameter").integer(diam);
    json.num_field("mean_distance_sampled", st.mean_distance);
    json.int_field("pseudo_diameter", diam);
  } else {
    json.null_field("mean_distance_sampled");
    json.null_field("pseudo_diameter");
  }

  // Power-law tail fit on positive degrees.
  std::vector<std::size_t> degrees;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) >= 1) degrees.push_back(g.degree(v));
  }
  bool have_fit = false;
  if (degrees.size() >= 50) {
    try {
      const auto fit = sfs::stats::fit_power_law_auto(degrees);
      t.row().cell("power-law alpha (auto xmin)").num(fit.alpha, 3);
      t.row().cell("power-law xmin").integer(fit.xmin);
      t.row().cell("power-law KS").num(fit.ks_distance, 4);
      json.num_field("powerlaw_alpha", fit.alpha);
      json.int_field("powerlaw_xmin", fit.xmin);
      json.num_field("powerlaw_ks", fit.ks_distance);
      have_fit = true;
    } catch (const std::exception&) {
      t.row().cell("power-law fit").cell("n/a (no viable tail)");
    }
  }
  if (!have_fit) {
    json.null_field("powerlaw_alpha");
    json.null_field("powerlaw_xmin");
    json.null_field("powerlaw_ks");
  }
  if (as_json) {
    std::cout << json.str() << "\n";
  } else {
    t.print(std::cout);
  }
  return 0;
}

int cmd_search(const std::vector<std::string>& args) {
  if (args.size() < 3) return usage();
  std::size_t start_paper = 0;
  std::size_t target_paper = 0;
  if (!sfs::sim::parse_size(args[1], start_paper)) {
    return bad_number("<start>", args[1]);
  }
  if (!sfs::sim::parse_size(args[2], target_paper)) {
    return bad_number("<target>", args[2]);
  }
  std::string model_arg;
  std::vector<std::string> policy_names;
  for (std::size_t i = 3; i < args.size(); ++i) {
    if (args[i] == "--policies") {
      if (!policy_names.empty()) {
        std::cerr << "error: flag --policies given more than once\n";
        return 1;
      }
      if (i + 1 >= args.size() ||
          !sfs::sim::parse_name_list(args[++i], policy_names)) {
        std::cerr << "error: --policies expects a comma-separated name "
                     "list\n";
        return 1;
      }
    } else if (args[i] == "weak" || args[i] == "strong") {
      if (!model_arg.empty()) {
        std::cerr << "error: model given more than once ('" << model_arg
                  << "', then '" << args[i] << "')\n";
        return 1;
      }
      model_arg = args[i];
    } else {
      return usage();
    }
  }
  if (model_arg.empty()) model_arg = "weak";
  const auto model = model_arg == "weak" ? sfs::search::KnowledgeModel::kWeak
                                         : sfs::search::KnowledgeModel::kStrong;
  const std::string policy_error =
      sfs::search::policy_selection_error(policy_names, model);
  if (!policy_error.empty()) {
    std::cerr << "error: " << policy_error << "\n";
    return 1;
  }
  const Graph g = sfs::graph::load(args[0]);
  if (start_paper < 1 || start_paper > g.num_vertices() || target_paper < 1 ||
      target_paper > g.num_vertices()) {
    std::cerr << "error: start/target must be paper ids in [1, n]\n";
    return 1;
  }
  const auto start = static_cast<VertexId>(start_paper - 1);
  const auto target = static_cast<VertexId>(target_paper - 1);

  // Policy selection by name (empty = the model's full portfolio).
  const auto specs = sfs::search::resolve_policies(model, policy_names);
  sfs::sim::Table t("search " + std::to_string(start_paper) + " -> " +
                        std::to_string(target_paper) + " (" + model_arg + ")",
                    {"policy", "requests", "raw", "path len", "found"});
  // The raw cap stops a walk; a strong policy never repeats a request, so
  // it cannot reach the cap.
  for (const auto* spec : specs) {
    Rng rng(42);
    const auto policy = spec->make();
    const auto r = sfs::search::run_search(
        g, start, target, *policy, rng,
        sfs::search::RunBudget{.max_raw_requests = 100 * g.num_vertices()});
    t.row()
        .cell(spec->name)
        .integer(r.requests)
        .integer(r.raw_requests)
        .integer(r.path_length)
        .cell(r.found ? "yes" : "no");
  }
  t.print(std::cout);
  return 0;
}

int cmd_policies(const std::vector<std::string>& args) {
  if (args.size() > 1) return usage();
  const bool as_json = args.size() == 1 && args[0] == "--json";
  if (!as_json && args.size() == 1 && args[0] != "--list") return usage();
  const auto specs = sfs::search::all_policies();
  if (as_json) {
    // One JSON object per policy (JSONL), the machine-readable mirror of
    // the table below.
    for (const auto& spec : specs) {
      sfs::sim::JsonObjectWriter json;
      json.str_field("name", spec.name);
      json.str_field("model", std::string(sfs::search::model_name(spec.model)));
      json.str_field("description", spec.description);
      std::cout << json.str() << "\n";
    }
    return 0;
  }
  sfs::sim::Table t("search policy table (" +
                        std::to_string(specs.size()) + ")",
                    {"name", "model", "description"});
  for (const auto& spec : specs) {
    t.row()
        .cell(spec.name)
        .cell(std::string(sfs::search::model_name(spec.model)))
        .cell(spec.description);
  }
  t.print(std::cout);
  std::cout << "\nselect with: sfsearch_cli search <graph> <s> <t> "
               "[weak|strong] --policies a,b  (or sfs_bench --policies)\n";
  return 0;
}

int cmd_bound(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  double p = 0.0;
  if (!sfs::sim::parse_double(args[0], p)) return bad_number("<p>", args[0]);
  std::size_t n = 0;
  if (!sfs::sim::parse_size(args[1], n)) return bad_number("<n>", args[1]);
  const auto est = sfs::core::mori_lower_bound(p, n, 3000, 99);
  std::cout << "Theorem 1 (weak model), Mori p=" << p << ", target vertex "
            << n << ":\n  equivalent window (" << est.a << ", " << est.b
            << "], |V| = " << est.window_size << "\n  P(E_{a,b}) ~= "
            << est.event.probability << " (Lemma 3 floor "
            << sfs::core::theory::lemma3_bound(p) << ")\n  lower bound "
            << est.bound << " expected requests (closed-form floor "
            << est.theory_floor << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "search") return cmd_search(args);
    if (cmd == "policies") return cmd_policies(args);
    if (cmd == "bound") return cmd_bound(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return usage();
}

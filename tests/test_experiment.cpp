// sim/experiment: seed derivation, CLI parsing and capability
// validation, the results emitter, and the shape of the sfs_bench
// experiment table (experiments/catalog.hpp).
#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/parallel.hpp"
#include "experiments/catalog.hpp"
#include "rng/stream_audit.hpp"

namespace {

using sfs::sim::CliRequest;
using sfs::sim::ExperimentContext;
using sfs::sim::ExperimentOptions;
using sfs::sim::ExperimentSpec;
using sfs::sim::experiment_seed;
using sfs::sim::experiment_stream_seed;
using sfs::sim::parse_experiment_cli;
using sfs::sim::validate_experiment_options;

ExperimentSpec make_spec(const std::string& name,
                         std::uint64_t default_seed = 0) {
  ExperimentSpec spec;
  spec.name = name;
  spec.title = "test experiment " + name;
  spec.claim = "claim";
  spec.default_seed = default_seed;
  spec.run = [](ExperimentContext&) { return 0; };
  return spec;
}

// ------------------------------------------------------------------- seeds

TEST(ExperimentSeeds, NameDerivedSeedsDiffer) {
  std::set<std::uint64_t> seen;
  for (const char* name : {"e1", "e2", "e3", "e10", "a1", "m4", "custom"}) {
    EXPECT_TRUE(seen.insert(experiment_seed(name)).second)
        << "seed collision for " << name;
  }
}

TEST(ExperimentSeeds, StreamSeedsDifferByStreamAndBase) {
  const std::uint64_t base = experiment_seed("e1");
  EXPECT_NE(experiment_stream_seed(base, "sweep"),
            experiment_stream_seed(base, "detail"));
  EXPECT_NE(experiment_stream_seed(base, "sweep"),
            experiment_stream_seed(base + 1, "sweep"));
  // Deterministic.
  EXPECT_EQ(experiment_stream_seed(base, "sweep"),
            experiment_stream_seed(base, "sweep"));
}

TEST(ExperimentSeeds, StreamDerivationsAreAudited) {
  auto& audit = sfs::rng::StreamAudit::instance();
  const bool was_enabled = audit.enabled();
  audit.set_enabled(true);
  const std::size_t before = audit.recorded_count();
  (void)experiment_stream_seed(experiment_seed("audit-test"),
                               "some-stream");
  EXPECT_GT(audit.recorded_count(), before)
      << "name-derived stream seeds must be visible to SFS_RNG_AUDIT";
  audit.set_enabled(was_enabled);
}

TEST(ExperimentSeeds, ContextPrefersCliSeed) {
  ExperimentSpec spec = make_spec("x1", 7);
  sfs::sim::ResultsEmitter emitter;
  ExperimentContext ctx{&spec, {}, &emitter};
  EXPECT_EQ(ctx.base_seed(), 7u);
  ctx.options.seed = 99;
  ctx.options.has_seed = true;
  EXPECT_EQ(ctx.base_seed(), 99u);
}

// --------------------------------------------------------------------- cli

TEST(ExperimentCli, HappyPathParsesEverything) {
  CliRequest req;
  std::string error;
  ASSERT_TRUE(parse_experiment_cli(
      {"--run", "e1", "--quick", "--large", "--sizes", "1024,2048,4096",
       "--reps", "3", "--seed", "0x1A26E1", "--threads", "4",
       "--checkpoint", "ck.csv", "--json", "out.jsonl"},
      req, error))
      << error;
  EXPECT_EQ(req.run_name, "e1");
  EXPECT_TRUE(req.options.quick);
  EXPECT_TRUE(req.options.large);
  EXPECT_EQ(req.options.sizes,
            (std::vector<std::size_t>{1024, 2048, 4096}));
  EXPECT_EQ(req.options.reps, 3u);
  EXPECT_TRUE(req.options.has_seed);
  EXPECT_EQ(req.options.seed, 0x1A26E1u);
  EXPECT_TRUE(req.options.has_threads);
  EXPECT_EQ(req.options.threads, 4u);
  EXPECT_EQ(req.options.checkpoint_path, "ck.csv");
  EXPECT_EQ(req.options.json_path, "out.jsonl");
}

TEST(ExperimentCli, NIsSingleElementSizes) {
  CliRequest req;
  std::string error;
  ASSERT_TRUE(parse_experiment_cli({"--run", "e6", "--n", "4096"}, req,
                                   error));
  EXPECT_EQ(req.options.sizes, (std::vector<std::size_t>{4096}));
}

TEST(ExperimentCli, UnknownFlagRejected) {
  CliRequest req;
  std::string error;
  for (const char* flag : {"--frobnicate", "--benchmark_filter=x"}) {
    EXPECT_FALSE(parse_experiment_cli({"--run", "e1", flag}, req, error))
        << flag;
    EXPECT_NE(error.find(flag), std::string::npos) << error;
  }
}

TEST(ExperimentCli, TypeErrorsRejected) {
  CliRequest req;
  std::string error;
  EXPECT_FALSE(parse_experiment_cli({"--run", "e1", "--reps", "abc"}, req,
                                    error));
  EXPECT_FALSE(parse_experiment_cli({"--run", "e1", "--reps", "0"}, req,
                                    error));
  EXPECT_FALSE(parse_experiment_cli({"--run", "e1", "--seed", "12junk"},
                                    req, error));
  EXPECT_FALSE(parse_experiment_cli({"--run", "e1", "--sizes", "10,abc"},
                                    req, error));
  EXPECT_FALSE(parse_experiment_cli({"--run", "e1", "--sizes", "10,10"},
                                    req, error))
      << "--sizes must be strictly increasing";
  EXPECT_FALSE(parse_experiment_cli({"--run", "e1", "--n", "0"}, req,
                                    error));
}

TEST(ExperimentCli, ThreadsAboveTheWorkerLimitRejected) {
  CliRequest req;
  std::string error;
  const std::string limit = std::to_string(sfs::base::kMaxWorkers);
  const std::string above = std::to_string(sfs::base::kMaxWorkers + 1);
  EXPECT_FALSE(parse_experiment_cli({"--run", "e1", "--threads", above}, req,
                                    error));
  EXPECT_NE(error.find("'" + above + "'"), std::string::npos) << error;
  ASSERT_TRUE(parse_experiment_cli({"--run", "e1", "--threads", limit}, req,
                                   error))
      << error;
  EXPECT_EQ(req.options.threads, sfs::base::kMaxWorkers);
}

TEST(ExperimentCli, MissingValueRejected) {
  CliRequest req;
  std::string error;
  EXPECT_FALSE(parse_experiment_cli({"--run"}, req, error));
  EXPECT_FALSE(parse_experiment_cli({"--run", "e1", "--checkpoint"}, req,
                                    error));
}

TEST(ExperimentCli, RepeatedValueFlagsRejected) {
  CliRequest req;
  std::string error;
  EXPECT_FALSE(parse_experiment_cli({"--run", "e1", "--run", "e2"}, req,
                                    error));
  EXPECT_NE(error.find("more than once"), std::string::npos);
  EXPECT_FALSE(parse_experiment_cli(
      {"--run", "e1", "--seed", "1", "--seed", "2"}, req, error));
  EXPECT_FALSE(parse_experiment_cli(
      {"--run", "e1", "--n", "5", "--sizes", "1,2"}, req, error));
  EXPECT_FALSE(parse_experiment_cli(
      {"--run", "e1", "--reps", "2", "--reps", "3"}, req, error));
  EXPECT_FALSE(parse_experiment_cli(
      {"--run", "e1", "--threads", "1", "--threads", "2"}, req, error));
  EXPECT_FALSE(parse_experiment_cli(
      {"--run", "e1", "--json", "a", "--json", "b"}, req, error));
  EXPECT_FALSE(parse_experiment_cli(
      {"--run", "e1", "--checkpoint", "a", "--checkpoint", "b"}, req,
      error));
  // Repeated boolean flags are idempotent and stay legal.
  EXPECT_TRUE(parse_experiment_cli({"--run", "e1", "--quick", "--quick"},
                                   req, error))
      << error;
}

TEST(ExperimentCli, EmptyPathValuesRejected) {
  CliRequest req;
  std::string error;
  EXPECT_FALSE(parse_experiment_cli(
      {"--run", "e1", "--quick", "--checkpoint", ""}, req, error))
      << "an empty checkpoint path reads back as 'flag absent'";
  EXPECT_NE(error.find("--checkpoint"), std::string::npos);
  EXPECT_FALSE(parse_experiment_cli({"--run", "e1", "--json", ""}, req,
                                    error));
}

TEST(ExperimentCli, ActionRequiredAndExclusive) {
  CliRequest req;
  std::string error;
  EXPECT_FALSE(parse_experiment_cli({}, req, error));
  EXPECT_FALSE(parse_experiment_cli({"--quick"}, req, error));
  EXPECT_FALSE(parse_experiment_cli({"--list", "--list-names"}, req,
                                    error));
  EXPECT_FALSE(parse_experiment_cli({"--list", "--run", "e1"}, req,
                                    error));
  ASSERT_TRUE(parse_experiment_cli({"--list"}, req, error));
  EXPECT_TRUE(req.list);
}

// -------------------------------------------------------------- validation

TEST(ExperimentValidation, CapabilityGating) {
  ExperimentSpec spec = make_spec("x1");  // no capability bits
  std::string error;

  // --quick and --seed need no bit: every experiment takes them.
  ExperimentOptions ok;
  ok.quick = true;
  ok.seed = 7;
  ok.has_seed = true;
  EXPECT_TRUE(validate_experiment_options(spec, ok, error)) << error;

  ExperimentOptions large;
  large.large = true;
  EXPECT_FALSE(validate_experiment_options(spec, large, error));
  EXPECT_NE(error.find("--large"), std::string::npos);

  ExperimentOptions sizes;
  sizes.sizes = {1024};
  EXPECT_FALSE(validate_experiment_options(spec, sizes, error));

  ExperimentOptions reps;
  reps.reps = 3;
  EXPECT_FALSE(validate_experiment_options(spec, reps, error));

  ExperimentOptions threads;
  threads.has_threads = true;
  threads.threads = 2;
  EXPECT_FALSE(validate_experiment_options(spec, threads, error));

  ExperimentOptions ckpt;
  ckpt.checkpoint_path = "x.csv";
  EXPECT_FALSE(validate_experiment_options(spec, ckpt, error));
}

TEST(ExperimentCli, PoliciesFlag) {
  CliRequest req;
  std::string error;
  ASSERT_TRUE(parse_experiment_cli(
      {"--run", "a1", "--policies", "bfs,random-walk"}, req, error))
      << error;
  EXPECT_EQ(req.options.policies,
            (std::vector<std::string>{"bfs", "random-walk"}));
  // Malformed lists: empty value, empty token, trailing comma.
  EXPECT_FALSE(parse_experiment_cli({"--run", "a1", "--policies", ""}, req,
                                    error));
  EXPECT_FALSE(parse_experiment_cli({"--run", "a1", "--policies", "a,,b"},
                                    req, error));
  EXPECT_FALSE(parse_experiment_cli({"--run", "a1", "--policies", "a,"},
                                    req, error));
  // Missing value and duplicate flag.
  EXPECT_FALSE(parse_experiment_cli({"--run", "a1", "--policies"}, req,
                                    error));
  EXPECT_FALSE(parse_experiment_cli(
      {"--run", "a1", "--policies", "a", "--policies", "b"}, req, error));
  EXPECT_NE(error.find("more than once"), std::string::npos);
}

TEST(ParseNameList, TokenRules) {
  std::vector<std::string> out;
  EXPECT_TRUE(sfs::sim::parse_name_list("one", out));
  EXPECT_EQ(out, (std::vector<std::string>{"one"}));
  EXPECT_TRUE(sfs::sim::parse_name_list("a,b,c", out));
  EXPECT_EQ(out, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_FALSE(sfs::sim::parse_name_list("", out));
  EXPECT_FALSE(sfs::sim::parse_name_list(",", out));
  EXPECT_FALSE(sfs::sim::parse_name_list("a,,b", out));
  EXPECT_FALSE(sfs::sim::parse_name_list(",a", out));
  EXPECT_FALSE(sfs::sim::parse_name_list("a,", out));
}

TEST(ExperimentValidation, PoliciesGatedByCapability) {
  std::string error;
  ExperimentSpec plain = make_spec("x1");
  ExperimentOptions options;
  options.policies = {"bfs"};
  EXPECT_FALSE(validate_experiment_options(plain, options, error));
  EXPECT_NE(error.find("--policies"), std::string::npos);

  ExperimentSpec with_cap = make_spec("x2");
  with_cap.caps = sfs::sim::kCapPolicies;
  EXPECT_TRUE(validate_experiment_options(with_cap, options, error))
      << error;
}

TEST(ExperimentValidation, PoliciesCheckedAgainstThePolicyTable) {
  ExperimentSpec spec = make_spec("x1");
  spec.caps = sfs::sim::kCapPolicies;
  std::string error;

  ExperimentOptions repeated;
  repeated.policies = {"bfs-strong", "bfs-strong"};
  EXPECT_FALSE(validate_experiment_options(spec, repeated, error))
      << "a repeated policy would be measured twice";
  EXPECT_NE(error.find("'bfs-strong' selected more than once"),
            std::string::npos)
      << error;

  ExperimentOptions unknown;
  unknown.policies = {"bfs", "nosuch"};
  EXPECT_FALSE(validate_experiment_options(spec, unknown, error));
  EXPECT_NE(error.find("unknown policy 'nosuch'"), std::string::npos)
      << error;

  // Both models pass: the run checks the model (d1_churn takes both).
  ExperimentOptions mixed;
  mixed.policies = {"degree-greedy-strong", "random-walk"};
  EXPECT_TRUE(validate_experiment_options(spec, mixed, error)) << error;
}

TEST(ExperimentValidation, SingleSizeExperimentsRejectSizeLists) {
  ExperimentSpec spec = make_spec("x1");
  spec.caps = sfs::sim::kCapSingleSize;
  std::string error;

  ExperimentOptions one;
  one.sizes = {4096};
  EXPECT_TRUE(validate_experiment_options(spec, one, error)) << error;

  ExperimentOptions many;
  many.sizes = {1024, 4096};
  EXPECT_FALSE(validate_experiment_options(spec, many, error))
      << "a size list must not be silently truncated to one entry";
  EXPECT_NE(error.find("single size"), std::string::npos);
}

TEST(ExperimentValidation, CheckpointRequiresGridMode) {
  ExperimentSpec spec = make_spec("x1");
  spec.caps = sfs::sim::kCapGrid;
  std::string error;

  ExperimentOptions bare;
  bare.checkpoint_path = "x.csv";
  EXPECT_FALSE(validate_experiment_options(spec, bare, error));
  EXPECT_NE(error.find("--checkpoint"), std::string::npos);

  ExperimentOptions with_large = bare;
  with_large.large = true;
  EXPECT_TRUE(validate_experiment_options(spec, with_large, error))
      << error;

  ExperimentOptions with_quick = bare;
  with_quick.quick = true;
  EXPECT_TRUE(validate_experiment_options(spec, with_quick, error))
      << error;

  // --large --quick together: the quick variant of the grid mode.
  ExperimentOptions both = with_large;
  both.quick = true;
  EXPECT_TRUE(validate_experiment_options(spec, both, error)) << error;
}

// ----------------------------------------------------------------- emitter

TEST(ResultsEmitter, ConsoleLinePrefixedAndFileMirrored) {
  const std::string path = ::testing::TempDir() + "emitter_test.jsonl";
  std::ostringstream console;
  {
    sfs::sim::ResultsEmitter emitter(console);
    emitter.open_jsonl(path);
    emitter.emit_point("bench x", 1024, 2, 686.0, 185.0, -1.0);
    emitter.emit_point("bench x", 2048, 2, 700.5, 10.0, 1.25);
  }
  const std::string expected_first =
      "{\"bench\":\"bench x\",\"n\":1024,\"reps\":2,\"mean\":686.000000,"
      "\"stderr\":185.000000,\"wall_s\":null}";
  EXPECT_EQ(console.str().substr(0, 11), "BENCH_JSON ");
  EXPECT_NE(console.str().find(expected_first), std::string::npos);
  EXPECT_NE(console.str().find("\"wall_s\":1.250000"), std::string::npos);

  std::ifstream in(path);
  std::string line1, line2;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_EQ(line1, expected_first);  // bare JSONL, no prefix
  std::remove(path.c_str());
}

TEST(ResultsEmitter, OpenFailureThrows) {
  sfs::sim::ResultsEmitter emitter;
  EXPECT_THROW(emitter.open_jsonl("/nonexistent-dir-xyz/out.jsonl"),
               std::runtime_error);
}

// ------------------------------------------------------ the experiment table

std::vector<std::string> catalog_names() {
  std::vector<std::string> names;
  for (const auto& spec : sfs::bench::experiments()) {
    names.push_back(spec.name);
  }
  return names;
}

TEST(ExperimentTable, NamesInCatalogOrder) {
  EXPECT_EQ(catalog_names(),
            (std::vector<std::string>{"e1", "e2", "e3", "e4", "e5", "e6",
                                      "e7", "e8", "e9", "e10", "e11", "e12",
                                      "a1", "a2", "a3", "d1_churn"}));
}

TEST(ExperimentTable, NamesAreUnique) {
  const auto names = catalog_names();
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
}

TEST(ExperimentTable, DefaultSeedsAreDistinct) {
  // Two experiments with one default seed would run correlated streams.
  const auto specs = sfs::bench::experiments();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i].resolved_default_seed(),
                specs[j].resolved_default_seed())
          << specs[i].name << " and " << specs[j].name;
    }
  }
}

TEST(ExperimentTable, LegacySeedsStayPinned) {
  // Bit-compatibility contract with the former bench_e1/e2 grids and
  // their on-disk checkpoints (the checkpoint meta row records the seed).
  const auto specs = sfs::bench::experiments();
  ASSERT_GE(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "e1");
  EXPECT_EQ(specs[0].resolved_default_seed(), 0x1A26E1u);
  EXPECT_EQ(specs[1].name, "e2");
  EXPECT_EQ(specs[1].resolved_default_seed(), 0x1A26E2u);
}

TEST(ExperimentTable, EveryEntryIsComplete) {
  for (const auto& spec : sfs::bench::experiments()) {
    EXPECT_FALSE(spec.title.empty()) << spec.name;
    EXPECT_FALSE(spec.claim.empty()) << spec.name;
    EXPECT_NE(spec.run, nullptr) << spec.name;
  }
}

}  // namespace

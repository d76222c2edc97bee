// sfs_perfbench: runs one benchmark workload for one seed.
//
//   sfs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --workdir <dir> [--first-op <n>] [--min-samples <n>]
//                 [--trace-out <file>] [--tiny]
//
// Untraced (--trace 0): set up several times, then run ops first-op,
// first-op + 1, ... in a closed loop (the next op starts when the previous
// one returns) for --seconds and at least --min-samples latency samples,
// then rerun a seeded sample of them at pool width 1. Traced (--trace 1):
// two instances of the workload run every op in turn from op 0, one
// untraced and one traced; the traced one's spans and counts go to
// --trace-out, and the ratio of their op times is the tracing overhead.
//
// Prints a manifest record first and a raw result record last, one JSON
// object per line. run.py turns raw records into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "base/parallel.hpp"
#include "harness.hpp"

namespace {

using perfbench::Clock;
using perfbench::json_number;
using perfbench::seconds_between;
using perfbench::Tracer;
using perfbench::Workload;

constexpr std::size_t kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::size_t first_op = 0;
  std::size_t min_samples = 100;
  std::string trace_out;
  bool tiny = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "sfs_perfbench: " << error
            << "\nusage: sfs_perfbench --workload <grid_weak|grid_strong|"
               "lookup_batch|churn_rounds> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--first-op <n>] "
               "[--min-samples <n>] [--trace-out <file>] [--tiny]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--workdir") {
        a.workdir = v;
      } else if (flag == "--first-op") {
        a.first_op = std::stoull(v);
      } else if (flag == "--min-samples") {
        a.min_samples = std::stoull(v);
      } else if (flag == "--trace-out") {
        a.trace_out = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty() || a.workdir.empty()) {
    usage("--workload and --workdir are required");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace && (a.trace_out.empty() || a.first_op != 0)) {
    usage("--trace 1 needs --trace-out and starts at op 0");
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  const perfbench::WorkloadConfig cfg{a.seed, a.tiny, a.workdir};
  if (a.workload == "grid_weak") return perfbench::make_grid_weak(cfg);
  if (a.workload == "grid_strong") return perfbench::make_grid_strong(cfg);
  if (a.workload == "lookup_batch") return perfbench::make_lookup_batch(cfg);
  if (a.workload == "churn_rounds") return perfbench::make_churn_rounds(cfg);
  usage("unknown workload " + a.workload);
}

struct Pass {
  std::size_t ops = 0;
  std::size_t units = 0;
  std::size_t failed_units = 0;
  double busy_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> digests;  // per op; 0 for an op that threw
  std::vector<std::string> errors;
};

void run_op(Workload& w, Tracer* tracer, std::size_t op, Pass& p) {
  try {
    perfbench::OpOutcome o = w.run_op(op, tracer);
    p.units += o.units;
    p.busy_s += o.busy_s;
    p.latency_ms.insert(p.latency_ms.end(), o.latency_ms.begin(),
                        o.latency_ms.end());
    p.digests.push_back(o.digest);
  } catch (const std::exception& e) {
    p.units += w.units_per_op();
    p.failed_units += w.units_per_op();
    p.digests.push_back(0);
    if (p.errors.size() < 8) {
      p.errors.push_back("op " + std::to_string(op) + ": " + e.what());
    }
  }
  ++p.ops;
}

// Closed loop over ops first_op, first_op + 1, ... until `seconds` have
// passed, `min_samples` latency samples are in and, from op 0, the digest
// window is complete. Stops only at a multiple of the workload's op
// period, and `seconds` (at least 10 s) late in any case. With `twin`,
// every op runs on it too, traced, right after the untraced run on `w`.
Pass run_pass(Workload& w, std::size_t first_op, double seconds,
              std::size_t min_samples, Workload* twin, Tracer* tracer,
              Pass* twin_pass) {
  const std::size_t window = first_op == 0 ? w.digest_ops() : 0;
  Pass p;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_between(t0, Clock::now());
    if (elapsed >= seconds + std::max(seconds, 10.0)) break;
    const bool complete = i >= window && p.latency_ms.size() >= min_samples;
    if (i % w.op_period() == 0 && elapsed >= seconds &&
        (complete || p.failed_units > 0)) {
      break;
    }
    // The second run of an op profits from the first, so the twin goes
    // first on every other op.
    const bool twin_first = twin != nullptr && i % 2 == 1;
    if (twin_first) run_op(*twin, tracer, first_op + i, *twin_pass);
    run_op(w, nullptr, first_op + i, p);
    if (twin != nullptr && !twin_first) {
      run_op(*twin, tracer, first_op + i, *twin_pass);
    }
  }
  return p;
}

std::string json_list(const std::vector<double>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) s += ',';
    s += json_number(xs[i]);
  }
  return s + "]";
}

std::string json_strings(const std::vector<std::string>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) s += ',';
    s += '"' + sfs::sim::json_escape(xs[i]) + '"';
  }
  return s + "]";
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void print_manifest(const Args& a, const Workload& w) {
  sfs::sim::JsonObjectWriter m;
  m.str_field("kind", "manifest");
  m.str_field("compiler", PERFBENCH_COMPILER);
  m.str_field("flags", PERFBENCH_FLAGS);
  m.str_field("build_type", PERFBENCH_BUILD_TYPE);
  m.int_field("hardware_threads", std::thread::hardware_concurrency());
  const char* env = std::getenv("SFS_THREADS");
  m.str_field("sfs_threads", env != nullptr ? env : "");
  m.int_field("pool_width", sfs::base::resolve_worker_count(0));
  m.str_field("workload", a.workload);
  m.int_field("seed", a.seed);
  m.bool_field("trace", a.trace);
  m.bool_field("tiny", a.tiny);
  m.raw_field("stream_plan",
              "{\"portfolio_cells\":1,\"query_engine\":2,"
              "\"bench_inputs\":\"audited_stream_seed(seed, "
              "mix64(fnv1a(tag)), index)\"}");
  sfs::sim::JsonObjectWriter params;
  w.describe(params);
  m.raw_field("params", params.str());
  std::cout << m.str() << std::endl;
}

int run(const Args& a) {
  auto workload = make_workload(a);
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    workload->setup(nullptr, rep);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  print_manifest(a, *workload);

  Pass pass;
  sfs::sim::JsonObjectWriter trace_info;
  if (!a.trace) {
    pass = run_pass(*workload, a.first_op, a.seconds, a.min_samples, nullptr,
                    nullptr, nullptr);
  } else {
    // Alternating ops between an untraced and a traced instance puts both
    // under the same host conditions. The traced run reports no latency
    // percentiles, so it needs only the digest window.
    Tracer tracer;
    auto twin = make_workload(a);
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
      twin->setup(&tracer, rep);
    }
    Pass traced;
    const Pass untraced = run_pass(*workload, 0, a.seconds / 2, 0,
                                   twin.get(), &tracer, &traced);
    // Tracing must not change what the program computes.
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < traced.ops; ++i) {
      if (traced.digests[i] != untraced.digests[i]) ++mismatches;
    }
    pass = traced;
    pass.failed_units += mismatches * workload->units_per_op();
    if (mismatches > 0) {
      pass.errors.push_back(std::to_string(mismatches) +
                            " op(s) differ between the untraced and traced "
                            "instances");
    }
    tracer.write_jsonl(a.trace_out);
    trace_info.str_field("file", a.trace_out);
    trace_info.int_field("ops", traced.ops);
    trace_info.raw_field("untraced_busy_s", json_number(untraced.busy_s));
    trace_info.raw_field("traced_busy_s", json_number(traced.busy_s));
    workload = std::move(twin);
  }

  const perfbench::CheckReport check = workload->check(
      perfbench::bench_stream(a.seed, "output check", a.first_op), a.first_op,
      pass.ops, a.trace);

  // results_digest covers the digest window of a pass that starts at op 0.
  perfbench::Fnv1a digest;
  const std::size_t digest_ops =
      a.first_op == 0 ? std::min(pass.ops, workload->digest_ops()) : 0;
  for (std::size_t i = 0; i < digest_ops; ++i) digest.add_u64(pass.digests[i]);

  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);

  sfs::sim::JsonObjectWriter r;
  r.str_field("kind", "raw");
  r.int_field("workers", sfs::base::resolve_worker_count(0));
  r.int_field("first_op", a.first_op);
  r.raw_field("setup_s", json_list(setup_s));
  r.int_field("ops", pass.ops);
  r.int_field("units", pass.units);
  r.int_field("failed_units", pass.failed_units);
  r.raw_field("busy_s", json_number(pass.busy_s));
  r.raw_field("latency_ms", json_list(pass.latency_ms));
  r.str_field("results_digest", hex64(digest.value()));
  r.int_field("digest_ops", digest_ops);
  r.int_field("digest_window", workload->digest_ops());
  sfs::sim::JsonObjectWriter c;
  c.int_field("checked", check.checked);
  c.int_field("mismatched", check.mismatched);
  c.raw_field("width1_s", json_number(check.width1_s));
  c.raw_field("pooled_s", json_number(check.pooled_s));
  c.raw_field("notes", json_strings(check.notes));
  r.raw_field("check", c.str());
  r.raw_field("errors", json_strings(pass.errors));
  r.int_field("peak_rss_kb", static_cast<std::uint64_t>(usage_self.ru_maxrss));
  if (a.trace) r.raw_field("trace", trace_info.str());
  std::cout << r.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "sfs_perfbench: " << e.what() << '\n';
    return 1;
  }
}

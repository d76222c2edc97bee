#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the driver (perfbench/CMakeLists.txt) into .bench_build/perfbench;
later runs only check that the build is current. The driver runs with the
shared pool pinned to SFS_THREADS = nproc - 1 workers, in a fresh scratch
directory that is removed afterwards.

Standard output, one JSON object per line:
  1. the manifest record (build, host, pool width, workload, seed, params);
  2. a summary record with results_digest (not a metric) and the output check;
  3. the result: {"correct", "attempted", "failed", "metrics"}, with every
     end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
Build output and diagnostics go to standard error. See README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "sfs_perfbench"

WORKLOADS = ("grid_weak", "grid_strong", "lookup_batch", "churn_rounds")

# An untraced run is split into driver processes of about this length.
SUB_RUN_SECONDS = 2.5
# Sub-run k starts at op k * OP_STRIDE, a multiple of every op period, so
# sub-runs measure disjoint inputs.
OP_STRIDE = 300000
MIN_LATENCY_SAMPLES = 100
# Every driver process of a run ends by this many seconds after the build.
RUN_DEADLINE_S = 170

# Registered search policies in registration order (weak, then strong).
POLICIES = (
    "bfs", "dfs", "degree-greedy", "min-id-greedy", "max-id-greedy",
    "random-frontier", "frontier-walk", "no-backtrack-walk", "random-walk",
    "weak-sim(degree-greedy-strong)",
    "degree-greedy-strong", "bfs-strong", "random-strong", "min-id-strong",
    "max-id-strong",
)
ENGINE_POLICIES = ("degree-greedy-strong", "bfs-strong", "random-walk")

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def metric_key(policy):
    return "".join(c if c.isalnum() or c in "_.-" else "_" for c in policy)


PER_LAYER = (
    [("gen.grow_s", "s"), ("graph.build_s", "s"), ("gen.vertices", "count"),
     ("search.busy_s", "s"), ("search.probes_raw", "count"),
     ("search.probes_charged", "count"), ("search.probes_per_s", "1/s")]
    + [("search.%s.probes_raw" % metric_key(p), "count") for p in POLICIES]
    + [("sim.portfolio.useful_frac", "ratio")]
    + [("search.engine.%s.batch_ms_p50" % metric_key(p), "ms")
       for p in ENGINE_POLICIES]
    + [("search.engine.sessions_rebuilt", "count"),
       ("search.probes_failed", "count"), ("search.restarts", "count"),
       ("search.abandoned_frac", "ratio"),
       ("sim.churn.inject_s", "s"), ("sim.churn.repair_s", "s"),
       ("graph.compactions", "count"), ("graph.ids_final", "count"),
       ("sim.scaling.tail_s", "s"), ("sim.checkpoint_bytes", "bytes"),
       ("base.pool.utilization", "ratio"), ("base.pool.speedup", "ratio"),
       ("setup.gen_s", "s"), ("setup.component_s", "s"),
       ("setup.engine_s", "s"),
       ("bench.query_gen_s", "s"), ("trace.overhead_frac", "ratio")]
)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the driver; exits on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: no repository sources next to %s" % HERE)
        sys.exit(2)
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                log("perfbench: cmake configure failed")
                sys.exit(1)
        cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "sfs_perfbench",
               "-j", str(nproc())]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            log("perfbench: build failed")
            sys.exit(1)


def source_identity():
    """git sha (None outside a git checkout) and a sha256 over the built sources."""
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            sha = res.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0")
            h.update(f.read_bytes())
    return sha, h.hexdigest()


def quantile(xs, q):
    """q-quantile with linear interpolation between order statistics."""
    s = sorted(xs)
    if not s:
        return 0.0
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def ratio(num, den):
    return num / den if den > 0 else 0.0


def end_to_end_metrics(raw):
    return {
        "throughput_per_s": ratio(raw["units"], raw["busy_s"]),
        "latency_p50_ms": quantile(raw["latency_ms"], 0.5),
        "latency_p90_ms": quantile(raw["latency_ms"], 0.9),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer_metrics(raw, trace_path):
    """Layer self times and counts from the traced pass's spans.

    Everything except setup.*, trace.overhead_frac and base.pool.speedup is
    taken over the digest window (the first digest_window ops), which is the
    same work for a given seed on every commit; counts are then exact.
    """
    window = raw["digest_window"]
    spans, counts = [], {}
    ids_at = {}
    with open(trace_path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["kind"] == "span":
                spans.append(rec)
            elif rec["op"] < window:
                if rec["name"] == "graph.ids":
                    ids_at[rec["op"]] = rec["value"]
                else:
                    counts[rec["name"]] = counts.get(rec["name"], 0.0) + rec["value"]

    def dur(s):
        return (s["end_ns"] - s["start_ns"]) * 1e-9

    setup = [s for s in spans if s["name"].startswith("setup.")]
    ops = [s for s in spans
           if not s["name"].startswith("setup.") and s["op"] < window]
    by_id = {s["id"]: s for s in ops}
    same_thread_children = {}
    cross_thread_children = {}
    for s in ops:
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        bucket = (same_thread_children if parent["thread"] == s["thread"]
                  else cross_thread_children)
        bucket.setdefault(parent["id"], []).append(s)

    def total(name):
        return sum(dur(s) for s in ops if s["name"] == name)

    def self_time(s):
        return dur(s) - sum(dur(c) for c in same_thread_children.get(s["id"], []))

    def setup_median(name):
        xs = [dur(s) for s in setup if s["name"] == name]
        return statistics.median(xs) if xs else 0.0

    busy = (sum(self_time(s) for s in ops if s["name"] == "sim.measure_portfolio")
            + total("search.run_batch"))
    tail = 0.0
    for s in ops:
        if s["name"] == "sim.measure_scaling":
            cells = cross_thread_children.get(s["id"], [])
            last = max((c["end_ns"] for c in cells), default=s["start_ns"])
            tail += (s["end_ns"] - last) * 1e-9
    workers = raw["workers"]
    check = raw["check"]
    speedup = ratio(check["width1_s"], check["pooled_s"])
    scaling_wall = total("sim.measure_scaling")
    if scaling_wall > 0:
        utilization = ratio(total("sim.cell"), scaling_wall * workers)
    else:
        # run_batch fans out inside the library; its pool time is the
        # width-1 time of the same batches.
        utilization = speedup / workers
    trace = raw["trace"]

    m = {
        "gen.grow_s": total("gen.grow"),
        "graph.build_s": total("graph.build"),
        "gen.vertices": counts.get("gen.vertices", 0.0),
        "search.busy_s": busy,
        "search.probes_raw": counts.get("search.probes_raw", 0.0),
        "search.probes_charged": counts.get("search.probes_charged", 0.0),
        "search.probes_per_s": ratio(counts.get("search.probes_raw", 0.0), busy),
    }
    for p in POLICIES:
        name = "search.%s.probes_raw" % metric_key(p)
        m[name] = counts.get(name, 0.0)
    m["sim.portfolio.useful_frac"] = ratio(
        counts.get("sim.portfolio.best_charged", 0.0),
        counts.get("search.probes_raw", 0.0))
    for p in ENGINE_POLICIES:
        xs = [dur(s) * 1e3 for s in ops
              if s["name"] == "search.run_batch" and s.get("label") == p]
        m["search.engine.%s.batch_ms_p50" % metric_key(p)] = (
            statistics.median(xs) if xs else 0.0)
    m.update({
        "search.engine.sessions_rebuilt": counts.get("search.engine.sessions_rebuilt", 0.0),
        "search.probes_failed": counts.get("search.probes_failed", 0.0),
        "search.restarts": counts.get("search.restarts", 0.0),
        "search.abandoned_frac": ratio(counts.get("search.abandoned", 0.0),
                                       counts.get("search.queries", 0.0)),
        "sim.churn.inject_s": total("sim.churn.inject"),
        "sim.churn.repair_s": total("sim.churn.repair"),
        "graph.compactions": counts.get("graph.compactions", 0.0),
        "graph.ids_final": ids_at[max(ids_at)] if ids_at else 0.0,
        "sim.scaling.tail_s": tail,
        "sim.checkpoint_bytes": counts.get("sim.checkpoint_bytes", 0.0),
        "base.pool.utilization": utilization,
        "base.pool.speedup": speedup,
        "setup.gen_s": setup_median("setup.gen"),
        "setup.component_s": setup_median("setup.component"),
        "setup.engine_s": setup_median("setup.engine"),
        "bench.query_gen_s": total("bench.query_gen"),
        "trace.overhead_frac": ratio(trace["traced_busy_s"],
                                     trace["untraced_busy_s"]) - 1.0,
    })
    return m


def run_driver(args, first_op, seconds, min_samples, trace_path, deadline):
    """One driver process in a fresh scratch directory; returns its records."""
    workdir = BUILD_ROOT / "work" / ("%s-%d-%d" % (args.workload, os.getpid(),
                                                   first_op))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--first-op", str(first_op),
           "--min-samples", str(min_samples)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, SFS_THREADS=str(args.pool_width))
    try:
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        sys.exit(1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = res.stdout.splitlines()
    if res.returncode != 0 or len(lines) < 2:
        log("perfbench: driver failed (exit %d)" % res.returncode)
        sys.exit(1)
    return json.loads(lines[0]), json.loads(lines[-1])


def merge(raws):
    """One raw record from the sub-runs: sums, pooled samples, sub-run 0's digest."""
    first = raws[0]
    check = {"checked": 0, "mismatched": 0, "width1_s": 0.0, "pooled_s": 0.0,
             "notes": []}
    for r in raws:
        for k in check:
            check[k] += r["check"][k]
    merged = dict(first)
    merged.update({
        "ops": sum(r["ops"] for r in raws),
        "units": sum(r["units"] for r in raws),
        "failed_units": sum(r["failed_units"] for r in raws),
        "busy_s": sum(r["busy_s"] for r in raws),
        "latency_ms": [x for r in raws for x in r["latency_ms"]],
        "setup_s": [x for r in raws for x in r["setup_s"]],
        "peak_rss_kb": statistics.median(r["peak_rss_kb"] for r in raws),
        "check": check,
        "errors": [e for r in raws for e in r["errors"]],
    })
    return merged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--pool-width", type=int, default=max(1, nproc() - 1),
                    help="SFS_THREADS for the driver (default: nproc - 1)")
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (selftest.py)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.pool_width < 1:
        ap.error("--seed must be >= 0, --seconds and --pool-width positive")

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    git_sha, source_sha = source_identity()
    tag = "%s-seed%d%s" % (args.workload, args.seed, "-tiny" if args.tiny else "")
    trace_path = BUILD_ROOT / "traces" / (tag + ".jsonl")
    if args.trace:
        trace_path.parent.mkdir(exist_ok=True)
        manifest, raw = run_driver(args, 0, args.seconds, 0, trace_path,
                                   deadline)
        sub_runs = 1
    else:
        # Several driver processes over disjoint op ranges: each process
        # gets its own memory placement, which moves cache-resident
        # workloads' times by up to half from one process to the next.
        sub_runs = max(1, round(args.seconds / SUB_RUN_SECONDS))
        min_samples = -(-MIN_LATENCY_SAMPLES // sub_runs)
        runs = [run_driver(args, k * OP_STRIDE, args.seconds / sub_runs,
                           min_samples, trace_path, deadline)
                for k in range(sub_runs)]
        manifest, raw = runs[0][0], merge([r for _, r in runs])

    manifest.update({"git_sha": git_sha, "source_sha256": source_sha,
                     "nproc": nproc(), "sub_runs": sub_runs,
                     "seconds": args.seconds})
    print(json.dumps(manifest), flush=True)

    failed = raw["failed_units"] + raw["check"]["mismatched"]
    attempted = max(1, raw["units"])
    print(json.dumps({
        "kind": "summary",
        "results_digest": raw["results_digest"],
        "digest_ops": raw["digest_ops"],
        "ops": raw["ops"],
        "failed_frac": failed / attempted,
        "check": raw["check"],
        "errors": raw["errors"],
        "trace_file": str(trace_path.relative_to(ROOT)) if args.trace else None,
    }), flush=True)

    if args.trace:
        values = per_layer_metrics(raw, trace_path)
        units = PER_LAYER
    else:
        values = end_to_end_metrics(raw)
        units = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units}
    print(json.dumps({
        "correct": failed == 0 and raw["digest_ops"] == raw["digest_window"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repeated benchmark runs: a capture of one commit, or parent/change pairs.

Capture: every workload of BENCHMARK.json (or --workloads), one run per
seed, then per metric the median, the quartiles (statistics.quantiles(values,
n=4)) and the spread (IQR / median).

    python3 perfbench/capture.py capture --seeds 1-10 [--trace 0|1]
        [--workloads grid_weak,lookup_batch] [--out capture.json]

Pairs: two checkouts that hold identical perfbench/ files (the parent and
the change), run alternately on the same seeds; the first side of each pair
alternates. Reports each side's median and quartiles per metric and how
many pairs the change won.

    python3 perfbench/capture.py pairs --parent ../parent --change . \\
        --workload grid_weak --seeds 1-10

Both run from the repository root and call perfbench/run.py as the
benchmark's own command does.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (workload names)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    res = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    lines = res.stdout.splitlines()
    if res.returncode != 0 or len(lines) < 3:
        raise SystemExit("run failed: %s seed %d in %s" % (workload, seed, checkout))
    return json.loads(lines[0]), json.loads(lines[1]), json.loads(lines[-1]), wall


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def capture(args):
    bounds = {m["name"]: m.get("bound") for m in
              json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]}
    out = {"captured_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "cpu": cpu_model(), "seeds": args.seeds, "seconds": args.seconds,
           "trace": args.trace, "workloads": {}}
    for w in args.workloads:
        per_metric, digests, walls, manifest, correct = {}, {}, [], None, True
        for seed in args.seeds:
            manifest, summary, result, wall = run_once(
                ".", w, seed, args.seconds, args.trace)
            correct = correct and result["correct"]
            digests[seed] = summary["results_digest"]
            walls.append(wall)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        stats = {name: summarize(v) for name, v in per_metric.items()}
        out["workloads"][w] = {"manifest": manifest, "all_correct": correct,
                               "run_wall_s": walls, "results_digest": digests,
                               "metrics": stats}
        for name, s in stats.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = " ok" if s["spread"] < bound / 3 else " WIDE"
            print("%-13s %-38s median %-12.6g spread %.4f%s" %
                  (w, name, s["median"], s["spread"], flag), flush=True)
        print("%-13s run wall max %.1f s, correct %s" % (w, max(walls), correct),
              flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


def pairs(args):
    sides = {"parent": args.parent, "change": args.change}
    results = {"parent": {}, "change": {}}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            _, _, result, _ = run_once(sides[side], args.workload, seed,
                                       args.seconds, 0)
            for name, m in result["metrics"].items():
                results[side].setdefault(name, []).append(m["value"])
    better = {name: m["better"] for name, m in
              ((m["name"], m) for m in json.loads(
                  Path("BENCHMARK.json").read_text())["end_to_end"])}
    for name, direction in better.items():
        p, c = results["parent"][name], results["change"][name]
        wins = sum((cv > pv) if direction == "higher" else (cv < pv)
                   for pv, cv in zip(p, c))
        sp, sc = summarize(p), summarize(c)
        print("%-18s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
              "change wins %d/%d" % (name, sp["median"], sp["q1"], sp["q3"],
                                     sc["median"], sc["q1"], sc["q3"], wins,
                                     len(p)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("capture")
    c.add_argument("--workloads", default=",".join(
        w["name"] for w in json.loads(
            Path("BENCHMARK.json").read_text())["workloads"]))
    c.add_argument("--trace", type=int, default=0, choices=(0, 1))
    c.add_argument("--out")
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True, choices=run.WORKLOADS)
    for s in (c, p):
        s.add_argument("--seeds", default="1-10", type=parse_seeds)
        s.add_argument("--seconds", type=int, default=json.loads(
            Path("BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args()
    if args.mode == "capture":
        args.workloads = args.workloads.split(",")
        capture(args)
    else:
        pairs(args)


if __name__ == "__main__":
    main()

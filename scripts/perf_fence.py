#!/usr/bin/env python3
"""Same-runner perf fence: a change against its parent on perfbench.

    python3 scripts/perf_fence.py --parent ../parent --change .
    python3 scripts/perf_fence.py --self-test

Builds and runs `perfbench/run.py --trace 0 --seconds 5` for every workload
of BENCHMARK.json, and for EXTRA_WORKLOADS, at seeds 1-3 in both checkouts,
alternating which side runs first, all on the same host. Exits 1 when

  * any run fails or reports correct = false (run.py reports a run correct
    only when none of its units failed), or
  * the change's median of any end-to-end metric is more than FENCE times
    worse than the parent's.

Each run also prints its summary line's results_digest and output-check
counts, and the report says per workload and seed whether the two sides'
digests agree. That only reports: a change that alters its outputs by
design still passes.

Paired runs need identical benchmark files: when perfbench/ or
BENCHMARK.json differ between the two checkouts the script says so,
compares nothing and exits 0.

Seeds, run length and the bound are constants, not flags. FENCE is a loose
regression fence (an accidentally quadratic path), not a perf claim; claims
use `perfbench/capture.py pairs` (perfbench/README.md).
"""

import argparse
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import capture  # noqa: E402  (run_once: one run.py call in a checkout)

SEEDS = (1, 2, 3)
SECONDS = 5
FENCE = 3.0
# lookup_batch is the only workload that times QueryEngine batches on a
# fixed overlay. Its 19-23% spread across seeds keeps it out of
# BENCHMARK.json's 0.25 bound, but is far inside FENCE.
EXTRA_WORKLOADS = ("lookup_batch",)


def benchmark_files(checkout):
    """Relative path -> bytes of BENCHMARK.json and all of perfbench/."""
    root = Path(checkout)
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for f in sorted((root / "perfbench").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            files[str(f.relative_to(root))] = f.read_bytes()
    return files


def differing_benchmark_files(parent, change):
    """Sorted paths that differ, or exist on one side only."""
    a, b = benchmark_files(parent), benchmark_files(change)
    return sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))


def worse_factor(parent, change, better):
    """How many times worse the change's value is: 1 = equal, < 1 = better."""
    worse, base = (parent, change) if better == "higher" else (change, parent)
    if base > 0:
        return worse / base
    return 1.0 if worse <= 0 else math.inf


def median_metric(runs, name):
    values = [r["metrics"][name]["value"]
              for r in runs if name in r["metrics"]]
    return statistics.median(values) if values else None


def verdict(results, metrics):
    """Pure verdict over finished runs.

    results: {"parent"|"change": {workload: [run.py result records]}};
    metrics: BENCHMARK.json's end_to_end list. Returns (report lines,
    failures); the fence passes when failures is empty.
    """
    lines, failures = [], []
    for workload in sorted(results["change"]):
        sides = {s: results[s].get(workload, []) for s in ("parent", "change")}
        for side, runs in sides.items():
            bad = sum(not r["correct"] for r in runs)
            if bad:
                failures.append("%s: %d of %d %s runs not correct"
                                % (workload, bad, len(runs), side))
        for m in metrics:
            name = m["name"]
            p = median_metric(sides["parent"], name)
            c = median_metric(sides["change"], name)
            if p is None or c is None:
                failures.append("%s: no %s median" % (workload, name))
                continue
            factor = worse_factor(p, c, m["better"])
            lines.append("%-13s %-17s parent %-10.4g change %-10.4g "
                         "worse x%.2f" % (workload, name, p, c, factor))
            if factor > FENCE:
                failures.append("%s: median %s is %.2fx worse (fence %gx)"
                                % (workload, name, factor, FENCE))
    return lines, failures


def digest_report(summaries):
    """Per workload and seed, whether the two sides wrote the same outputs.

    summaries: {"parent"|"change": {(workload, seed): run.py summary
    record}}. Returns report lines; a difference is reported, never failed.
    """
    lines = []
    for key in sorted(summaries["change"]):
        c = summaries["change"][key]["results_digest"]
        p = summaries["parent"].get(key, {}).get("results_digest")
        lines.append("digest %-13s seed %d %s" % (
            key[0], key[1], "equal %s" % c if p == c
            else "DIFFERS parent %s change %s" % (p, c)))
    return lines


def fence(parent, change):
    differ = differing_benchmark_files(parent, change)
    if differ:
        print("perf_fence: the benchmark files differ between the checkouts "
              "(%s); paired runs need identical ones, so nothing is compared"
              % ", ".join(differ))
        return 0
    bench = json.loads((Path(change) / "BENCHMARK.json").read_text())
    sides = {"parent": parent, "change": change}
    results = {"parent": {}, "change": {}}
    summaries = {"parent": {}, "change": {}}
    workloads = [w["name"] for w in bench["workloads"]] + list(EXTRA_WORKLOADS)
    runs = [(w, seed) for w in workloads for seed in SEEDS]
    for k, (w, seed) in enumerate(runs):
        for side in ("parent", "change")[::1 if k % 2 == 0 else -1]:
            # A run that exits nonzero stops the fence with exit 1.
            _, summary, r, _ = capture.run_once(sides[side], w, seed,
                                                SECONDS, 0)
            results[side].setdefault(w, []).append(r)
            summaries[side][(w, seed)] = summary
            check = summary["check"]
            print("run %-13s seed %d %-6s correct %s digest %s "
                  "checked %d mismatched %d"
                  % (w, seed, side, r["correct"], summary["results_digest"],
                     check["checked"], check["mismatched"]), flush=True)
    lines, failures = verdict(results, bench["end_to_end"])
    print("\n".join(lines + digest_report(summaries)))
    for f in failures:
        print("FAIL " + f)
    print("perf fence (seeds %s, %d s runs, bound %gx): %s"
          % (",".join(map(str, SEEDS)), SECONDS, FENCE,
             "FAIL" if failures else "PASS"))
    return 1 if failures else 0


# ------------------------------------------------------------------ self-test

METRICS = [{"name": "throughput_per_s", "better": "higher"},
           {"name": "latency_p50_ms", "better": "lower"},
           {"name": "peak_rss_mb", "better": "lower"}]
BASE = {"throughput_per_s": 100.0, "latency_p50_ms": 10.0, "peak_rss_mb": 50.0}


def synthetic(scale=None, parent_scale=None, bad=()):
    """Three runs per side with medians BASE, times each side's scale.

    Sides named in `bad` get one incorrect run."""
    results = {}
    for side, sc in (("parent", parent_scale or {}), ("change", scale or {})):
        results[side] = {"grid_weak": [
            {"correct": not (side in bad and jitter == 1.0),
             "metrics": {n: {"value": v * jitter * sc.get(n, 1.0)}
                         for n, v in BASE.items()}}
            for jitter in (0.9, 1.0, 1.2)]}
    return results


def self_test():
    cases = [  # (label, results, whether the fence passes)
        ("equal medians", synthetic(), True),
        ("throughput 2.9x lower", synthetic({"throughput_per_s": 1 / 2.9}),
         True),
        ("throughput 3.1x lower", synthetic({"throughput_per_s": 1 / 3.1}),
         False),
        ("latency 2.9x higher", synthetic({"latency_p50_ms": 2.9}), True),
        ("latency 3.1x higher", synthetic({"latency_p50_ms": 3.1}), False),
        ("rss 5x lower", synthetic({"peak_rss_mb": 0.2}), True),
        ("throughput 5x higher", synthetic({"throughput_per_s": 5.0}), True),
        ("zero throughput", synthetic({"throughput_per_s": 0.0}), False),
        ("latency up from 0", synthetic(parent_scale={"latency_p50_ms": 0.0}),
         False),
        ("incorrect change run", synthetic(bad=("change",)), False),
        ("incorrect parent run", synthetic(bad=("parent",)), False),
        ("no change runs", {"parent": synthetic()["parent"],
                            "change": {"grid_weak": []}}, False),
    ]
    failed = 0
    for label, results, expect_pass in cases:
        _, failures = verdict(results, METRICS)
        if (not failures) != expect_pass:
            failed += 1
            print("FAILED: %s: %s" % (label, failures or "passed"))

    # The digest report: equal and differing digests per (workload, seed),
    # and a seed the parent never ran. It only reports; the verdict above
    # reads no digest.
    summaries = {"parent": {("grid_weak", 1): {"results_digest": "aa"},
                            ("grid_weak", 2): {"results_digest": "bb"}},
                 "change": {("grid_weak", 1): {"results_digest": "aa"},
                            ("grid_weak", 2): {"results_digest": "cc"},
                            ("grid_weak", 3): {"results_digest": "dd"}}}
    digest_cases = [
        ("equal digests", "digest grid_weak     seed 1 equal aa"),
        ("differing digests",
         "digest grid_weak     seed 2 DIFFERS parent bb change cc"),
        ("parent run missing",
         "digest grid_weak     seed 3 DIFFERS parent None change dd"),
    ]
    got = digest_report(summaries)
    for k, (label, want) in enumerate(digest_cases):
        if k >= len(got) or got[k] != want:
            failed += 1
            print("FAILED: %s: %r" % (label, got[k] if k < len(got) else None))

    # Edits to one of two identical trees, applied in turn; a bytecode
    # cache is not a benchmark file.
    edits = [("perfbench/__pycache__/run.pyc", "cache"),
             ("perfbench/src/main.cpp", "int y;"),
             ("perfbench/new.py", ""),
             ("BENCHMARK.json", "{ }")]
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")

        def put(root, rel, text):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)

        for root in (a, b):
            put(root, "BENCHMARK.json", "{}")
            put(root, "perfbench/src/main.cpp", "int x;")
        expected = []
        for rel, text in edits:
            put(b, rel, text)
            if "__pycache__" not in rel:
                expected = sorted(expected + [rel])
            got = differing_benchmark_files(a, b)
            if got != expected:
                failed += 1
                print("FAILED: identity after %s: %s" % (rel, got))

    total = len(cases) + len(digest_cases) + len(edits)
    print("perf_fence self-test: %d/%d cases %s"
          % (total - failed, total, "OK" if not failed else "passed"))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--self-test", action="store_true",
                    help="check the verdict on synthetic medians and exit")
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change):
        ap.error("--parent and --change are required (or --self-test)")
    return fence(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Run from the repository root. For every workload (lookup_batch included):
  * every end-to-end and every per-layer metric prints, with the unit
    BENCHMARK.json gives it (run.py's metric lists must match the file);
  * the output check passes and nothing fails;
  * results_digest is equal at pool widths 1 and 3 (thread invariance);
  * each layer's metrics are non-zero on the workloads that run the layer
    and zero on those that do not, as the prediction table in README.md says.
Exits 1 on the first workload that fails a check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

GRID = {
    "nonzero": ["gen.grow_s", "graph.build_s", "gen.vertices", "search.busy_s",
                "search.probes_raw", "search.probes_charged",
                "search.probes_per_s", "sim.portfolio.useful_frac",
                "sim.scaling.tail_s", "sim.checkpoint_bytes",
                "base.pool.utilization", "base.pool.speedup", "setup.gen_s"],
    "zero": ["search.engine.sessions_rebuilt", "search.probes_failed",
             "sim.churn.inject_s", "sim.churn.repair_s", "graph.compactions",
             "setup.component_s", "setup.engine_s", "bench.query_gen_s"],
}
EXPECT = {
    "grid_weak": GRID,
    "grid_strong": GRID,
    "lookup_batch": {
        "nonzero": ["search.busy_s", "search.probes_raw",
                    "search.engine.degree-greedy-strong.batch_ms_p50",
                    "search.engine.bfs-strong.batch_ms_p50",
                    "search.engine.random-walk.batch_ms_p50",
                    "base.pool.utilization", "base.pool.speedup",
                    "setup.gen_s", "setup.component_s", "setup.engine_s"],
        "zero": ["gen.grow_s", "graph.build_s", "sim.portfolio.useful_frac",
                 "search.probes_failed", "search.restarts",
                 "search.engine.sessions_rebuilt", "sim.churn.inject_s",
                 "sim.scaling.tail_s", "sim.checkpoint_bytes"],
    },
    "churn_rounds": {
        "nonzero": ["search.busy_s", "search.probes_raw",
                    "search.engine.degree-greedy-strong.batch_ms_p50",
                    "search.engine.random-walk.batch_ms_p50",
                    "search.engine.sessions_rebuilt", "search.probes_failed",
                    "sim.churn.inject_s", "sim.churn.repair_s",
                    "graph.compactions", "graph.ids_final",
                    "base.pool.utilization", "base.pool.speedup",
                    "setup.gen_s", "setup.component_s", "setup.engine_s",
                    "bench.query_gen_s"],
        "zero": ["gen.grow_s", "graph.build_s", "sim.portfolio.useful_frac",
                 "sim.scaling.tail_s", "sim.checkpoint_bytes",
                 "search.engine.bfs-strong.batch_ms_p50"],
    },
}


def run_tiny(workload, trace, width):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "11", "--seconds", "1", "--trace", str(trace),
           "--pool-width", str(width), "--tiny"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = res.stdout.splitlines()
    if res.returncode != 0 or len(lines) != 3:
        raise AssertionError("%s trace=%d width=%d: run failed" %
                             (workload, trace, width))
    manifest, summary, result = (json.loads(x) for x in lines)
    if manifest.get("kind") != "manifest" or manifest["pool_width"] != width:
        raise AssertionError("%s: manifest missing or wrong pool width" % workload)
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError("%s trace=%d width=%d: output check failed: %s" %
                             (workload, trace, width, summary))
    return summary, result["metrics"]


def check_units(metrics, expected, what):
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != dict(expected):
        raise AssertionError("%s metrics differ from BENCHMARK.json: %s" %
                             (what, sorted(set(got.items()) ^ set(expected))))


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    file_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    file_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    if file_e2e != list(run.END_TO_END) or file_layer != list(run.PER_LAYER):
        print("FAIL: run.py's metric lists differ from BENCHMARK.json")
        return 1
    listed = {w["name"] for w in bench["workloads"]}
    if not listed <= set(run.WORKLOADS):
        print("FAIL: BENCHMARK.json names a workload run.py does not know")
        return 1

    for workload in run.WORKLOADS:
        try:
            s1, e2e = run_tiny(workload, 0, 1)
            s3, _ = run_tiny(workload, 0, 3)
            _, layer = run_tiny(workload, 1, 3)
            check_units(e2e, file_e2e, "end-to-end")
            check_units(layer, file_layer, "per-layer")
            if (s1["results_digest"], s1["digest_ops"]) != (
                    s3["results_digest"], s3["digest_ops"]):
                raise AssertionError("results_digest differs at widths 1 and 3")
            for name in EXPECT[workload]["nonzero"]:
                if not layer[name]["value"] > 0:
                    raise AssertionError("%s should be > 0" % name)
            for name in EXPECT[workload]["zero"]:
                if layer[name]["value"] != 0:
                    raise AssertionError("%s should be 0" % name)
            for name, m in e2e.items():
                if not m["value"] > 0:
                    raise AssertionError("%s should be > 0" % name)
        except AssertionError as e:
            print("FAIL %-13s %s" % (workload, e))
            return 1
        print("ok   %-13s digest %s over %d ops at widths 1 and 3" %
              (workload, s1["results_digest"], s1["digest_ops"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

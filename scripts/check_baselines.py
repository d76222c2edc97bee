#!/usr/bin/env python3
"""Baseline guard for the committed BENCH_*.json perf artifacts.

Usage:
  check_baselines.py FRESH_M2.json FRESH_M5.json FRESH_M6.json
                                                     full check
  check_baselines.py --schema-only FILE --bench B    schema-check one file
  check_baselines.py --print-schema BENCH            list required keys
  check_baselines.py --self-test                     exercise the checker

The full check compares fresh --quick captures against the committed
BENCH_m2.json / BENCH_m5.json / BENCH_m6.json at the repo root:

  1. SCHEMA — the fresh captures are non-empty JSONL with the required
     keys per record (an emitter regression that silently produces empty
     or misshapen files is exactly what left BENCH_m2.json at 0 bytes
     once), and m5's bit_identical flag is still true;
  2. MISSING-CASE — every committed record's case/policy still exists in
     the fresh capture;
  3. REGRESSION — throughput has not regressed by more than the fence
     (fresh must be at least committed/3). The wide 3x fence absorbs
     host-class noise between the capture machine and CI runners while
     still catching order-of-magnitude regressions (an accidentally
     quadratic hot path, a debug-build artifact).

The BENCH_SCHEMA table below is the single source of truth for the
required keys; scripts/capture_baselines.sh validates its captures
through --schema-only, so the capture and check sides cannot drift.

Exit codes (distinct per failure class; most severe class wins):
  0  all checks passed
  2  usage error / missing input file
  3  schema failure (empty capture, missing keys, bit_identical=false)
  4  committed case missing from the fresh capture
  5  throughput regression beyond the fence
"""

import argparse
import json
import pathlib
import sys
import tempfile

FENCE = 3.0

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCHEMA = 3
EXIT_MISSING_CASE = 4
EXIT_REGRESSION = 5

# One source of truth for the BENCH_JSON record schema of every committed
# baseline (capture_baselines.sh consumes it via --schema-only).
BENCH_SCHEMA = {
    "m2": {
        "committed": "BENCH_m2.json",
        "key": "case",
        "metric": "items_per_second",
        "required": {
            "bench", "case", "iterations", "real_time", "cpu_time",
            "time_unit", "items_per_second",
        },
    },
    "m5_query_engine": {
        "committed": "BENCH_m5.json",
        "key": "policy",
        "metric": "seq_qps",
        "required": {
            "bench", "policy", "model", "n", "queries", "seq_qps",
            "pool_qps", "speedup", "mean_requests", "found_frac",
            "bit_identical", "stream_plan",
        },
    },
    "m6_compression": {
        "committed": "BENCH_m6.json",
        "key": "case",
        "metric": "decode_mslots_per_s",
        "required": {
            "bench", "case", "n", "edges", "graph_bytes",
            "compressed_bytes", "ratio", "decode_mslots_per_s",
            "bit_identical",
        },
    },
}

# The full check's positional capture order (and the committed files it
# compares them against).
FULL_CHECK_ORDER = ("m2", "m5_query_engine", "m6_compression")


class Failures:
    """Failures bucketed by class; the exit code is the most severe
    bucket present (schema > missing-case > regression)."""

    def __init__(self):
        self.schema = []
        self.missing = []
        self.regression = []

    def empty(self):
        return not (self.schema or self.missing or self.regression)

    def exit_code(self):
        if self.schema:
            return EXIT_SCHEMA
        if self.missing:
            return EXIT_MISSING_CASE
        if self.regression:
            return EXIT_REGRESSION
        return EXIT_OK

    def report(self, out=sys.stdout):
        for label, bucket in (("schema", self.schema),
                              ("missing-case", self.missing),
                              ("regression", self.regression)):
            for msg in bucket:
                print(f"  - [{label}] {msg}", file=out)


def load_jsonl(path):
    records = []
    for line in pathlib.Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def check_schema(bench, records, label, failures):
    spec = BENCH_SCHEMA[bench]
    if not records:
        failures.schema.append(f"{bench}: {label} is empty")
        return
    for rec in records:
        missing = spec["required"] - rec.keys()
        if missing:
            failures.schema.append(
                f"{bench}: {label} record {rec.get(spec['key'], '?')} is "
                f"missing keys {sorted(missing)}")
        if rec.get("bit_identical") is False:
            failures.schema.append(
                f"{bench}: {rec.get(spec['key'], '?')} reports "
                "bit_identical=false (seq/pool divergence)")


def check(bench, fresh_path, repo_root, failures):
    spec = BENCH_SCHEMA[bench]
    fresh = load_jsonl(fresh_path)
    committed = load_jsonl(repo_root / spec["committed"])

    check_schema(bench, fresh, f"fresh capture {fresh_path}", failures)
    if not committed:
        failures.schema.append(
            f"{bench}: committed baseline {spec['committed']} is empty")
    if not fresh or not committed:
        return

    fresh_by_key = {rec[spec["key"]]: rec for rec in fresh
                    if spec["key"] in rec}
    for rec in committed:
        key = rec[spec["key"]]
        if key not in fresh_by_key:
            failures.missing.append(
                f"{bench}: committed case '{key}' missing from the fresh "
                "capture")
            continue
        old = rec[spec["metric"]]
        new = fresh_by_key[key].get(spec["metric"])
        if not isinstance(new, (int, float)) or isinstance(new, bool):
            failures.schema.append(
                f"{bench}: '{key}' fresh {spec['metric']} is not numeric")
            continue
        if new * FENCE < old:
            failures.regression.append(
                f"{bench}: '{key}' {spec['metric']} regressed beyond the "
                f"{FENCE}x fence: committed {old:.0f}, fresh {new:.0f}")


# -------------------------------------------------------------- self-test

GOOD_M2 = {"bench": "m2", "case": "strong/4096", "iterations": 10,
           "real_time": 1.0, "cpu_time": 1.0, "time_unit": "ns",
           "items_per_second": 1000.0}
GOOD_M5 = {"bench": "m5_query_engine", "policy": "bfs", "model": "weak",
           "n": 1000, "queries": 64, "seq_qps": 500.0, "pool_qps": 900.0,
           "speedup": 1.8, "mean_requests": 10.0, "found_frac": 1.0,
           "bit_identical": True, "stream_plan": "kCounter"}
GOOD_M6 = {"bench": "m6_compression", "case": "varint", "n": 65536,
           "edges": 65535, "graph_bytes": 2621424.0,
           "compressed_bytes": 468554.0, "ratio": 5.59,
           "decode_mslots_per_s": 7.5, "bit_identical": True}


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def self_test():
    """Fixture cases asserting one distinct exit code per failure class,
    plus the schema > missing-case > regression precedence."""
    cases = []

    def case(name, fresh_m2, fresh_m5, want, fresh_m6=None):
        fresh_m6 = [GOOD_M6] if fresh_m6 is None else fresh_m6
        cases.append((name, fresh_m2, fresh_m5, fresh_m6, want))

    case("all-good", [GOOD_M2], [GOOD_M5], EXIT_OK)
    case("empty-fresh", [], [GOOD_M5], EXIT_SCHEMA)
    case("missing-key",
         [{k: v for k, v in GOOD_M2.items() if k != "items_per_second"}],
         [GOOD_M5], EXIT_SCHEMA)
    case("bit-identical-false", [GOOD_M2],
         [dict(GOOD_M5, bit_identical=False)], EXIT_SCHEMA)
    case("missing-case", [dict(GOOD_M2, case="other/1")], [GOOD_M5],
         EXIT_MISSING_CASE)
    case("regression", [dict(GOOD_M2, items_per_second=100.0)], [GOOD_M5],
         EXIT_REGRESSION)
    case("within-fence", [dict(GOOD_M2, items_per_second=400.0)], [GOOD_M5],
         EXIT_OK)
    case("schema-beats-regression",
         [dict(GOOD_M2, items_per_second=100.0)],
         [{k: v for k, v in GOOD_M5.items() if k != "found_frac"}],
         EXIT_SCHEMA)
    case("missing-beats-regression",
         [dict(GOOD_M2, items_per_second=100.0),
          dict(GOOD_M2, case="extra/1")],
         [dict(GOOD_M5, policy="renamed")], EXIT_MISSING_CASE)
    # m6 is guarded by the same machinery: a lossy codec (bit_identical
    # false) is a schema failure, a decode-rate collapse a regression.
    case("m6-lossy-codec", [GOOD_M2], [GOOD_M5], EXIT_SCHEMA,
         fresh_m6=[dict(GOOD_M6, bit_identical=False)])
    case("m6-missing-codec", [GOOD_M2], [GOOD_M5], EXIT_MISSING_CASE,
         fresh_m6=[dict(GOOD_M6, case="renamed")])
    case("m6-decode-regression", [GOOD_M2], [GOOD_M5], EXIT_REGRESSION,
         fresh_m6=[dict(GOOD_M6, decode_mslots_per_s=1.0)])

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = pathlib.Path(tmp)
        for name, m2, m5, m6, want in cases:
            root = tmpdir / name
            root.mkdir()
            _write_jsonl(root / "BENCH_m2.json", [GOOD_M2])
            _write_jsonl(root / "BENCH_m5.json", [GOOD_M5])
            _write_jsonl(root / "BENCH_m6.json", [GOOD_M6])
            _write_jsonl(root / "fresh_m2.json", m2)
            _write_jsonl(root / "fresh_m5.json", m5)
            _write_jsonl(root / "fresh_m6.json", m6)
            failures = Failures()
            check("m2", root / "fresh_m2.json", root, failures)
            check("m5_query_engine", root / "fresh_m5.json", root, failures)
            check("m6_compression", root / "fresh_m6.json", root, failures)
            got = failures.exit_code()
            if got == want:
                print(f"ok   {name}: exit {got}")
            else:
                failed += 1
                print(f"FAIL {name}: want exit {want}, got {got}")
                failures.report()

        # --schema-only surface: good file passes, truncated file fails.
        root = tmpdir / "schema-only"
        root.mkdir()
        _write_jsonl(root / "good.json", [GOOD_M5])
        _write_jsonl(root / "bad.json",
                     [{k: v for k, v in GOOD_M5.items() if k != "seq_qps"}])
        for fname, want in (("good.json", EXIT_OK), ("bad.json", EXIT_SCHEMA)):
            failures = Failures()
            check_schema("m5_query_engine", load_jsonl(root / fname),
                         fname, failures)
            got = failures.exit_code()
            if got == want:
                print(f"ok   schema-only/{fname}: exit {got}")
            else:
                failed += 1
                print(f"FAIL schema-only/{fname}: want exit {want}, "
                      f"got {got}")

    total = len(cases) + 2
    if failed:
        print(f"check_baselines self-test: {failed}/{total} case(s) FAILED")
        return 1
    print(f"check_baselines self-test: {total}/{total} cases OK")
    return 0


# ------------------------------------------------------------------- main

def main(argv):
    parser = argparse.ArgumentParser(
        prog="check_baselines.py",
        description="guard the committed BENCH_*.json perf baselines",
        epilog="exit codes: 0 ok, 2 usage, 3 schema, 4 missing-case, "
               "5 regression")
    parser.add_argument("fresh", nargs="*", metavar="FRESH.json",
                        help="fresh captures, in order: FRESH_M2.json "
                             "FRESH_M5.json FRESH_M6.json")
    parser.add_argument("--repo-root", default=None,
                        help="directory holding the committed baselines "
                             "(default: parent of this script)")
    parser.add_argument("--schema-only", metavar="FILE",
                        help="only schema-check FILE (requires --bench)")
    parser.add_argument("--bench", choices=sorted(BENCH_SCHEMA),
                        help="which schema --schema-only validates against")
    parser.add_argument("--print-schema", metavar="BENCH",
                        choices=sorted(BENCH_SCHEMA),
                        help="print BENCH's required keys, one per line")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture cases")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    if args.print_schema:
        for key in sorted(BENCH_SCHEMA[args.print_schema]["required"]):
            print(key)
        return EXIT_OK

    if args.schema_only:
        if not args.bench:
            parser.error("--schema-only requires --bench")
        path = pathlib.Path(args.schema_only)
        if not path.is_file():
            print(f"check_baselines: no such file: {path}", file=sys.stderr)
            return EXIT_USAGE
        failures = Failures()
        check_schema(args.bench, load_jsonl(path), str(path), failures)
        if not failures.empty():
            print(f"schema check FAILED for {path} [{args.bench}]:")
            failures.report()
            return failures.exit_code()
        print(f"schema OK: {path} [{args.bench}]")
        return EXIT_OK

    if len(args.fresh) != len(FULL_CHECK_ORDER):
        parser.error("expected exactly three captures: FRESH_M2.json "
                     "FRESH_M5.json FRESH_M6.json")
    repo_root = (pathlib.Path(args.repo_root) if args.repo_root else
                 pathlib.Path(__file__).resolve().parent.parent)
    for p in args.fresh:
        if not pathlib.Path(p).is_file():
            print(f"check_baselines: no such file: {p}", file=sys.stderr)
            return EXIT_USAGE

    failures = Failures()
    for bench, fresh in zip(FULL_CHECK_ORDER, args.fresh):
        check(bench, pathlib.Path(fresh), repo_root, failures)
    if not failures.empty():
        print("baseline check FAILED:")
        failures.report()
        return failures.exit_code()
    print("baseline check passed: schema OK, all cases present, "
          f"throughput within the {FENCE}x fence.")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

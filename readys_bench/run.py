#!/usr/bin/env python3
"""Builds and runs readys_bench, the repository's benchmark.

    python3 readys_bench/run.py --workload <name|all> --seed <n>
                                [--seconds <s>] [--trace 0|1]
                                [--scale <x>] [--out <path>]
    python3 readys_bench/run.py --list
    python3 readys_bench/run.py --compare A.json... -- B.json...

Run from anywhere; paths are resolved against the repository root (the
parent of this directory). The first call configures and builds the
harness in .bench_build/ (the repository's src/ libraries plus
readys_bench.cpp, Release); later calls rebuild incrementally. Build output
goes to stderr. Everything else is passed to the harness, one workload per
process; the last line of its stdout is the result object.

--list prints the workloads and metric table of BENCHMARK.json, with the
bound of each end-to-end metric. --compare reads result files written with
--out (A = parent runs, B = change runs, paired in order) and prints, per
workload and end-to-end metric, each side's median and quartiles and the
change against the bound.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "readys_bench"


def fail(msg, code=2):
    print(f"readys_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources under {ROOT / 'src'}; run from a "
             "checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "readys_bench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                  "readys_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), code=1)


def run_workloads(argv):
    """Runs the harness; --workload all runs every workload in turn."""
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            code = 0
            for w in load_spec()["workloads"]:
                args = argv[:i + 1] + [w["name"]] + argv[i + 2:]
                code = max(code, subprocess.run([str(BINARY)] + args).returncode)
            return code
    return subprocess.run([str(BINARY)] + argv).returncode


def print_list():
    spec = load_spec()
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:<20} {w['why']}")
    print("end-to-end metrics (--trace 0; bound = allowed regression of the "
          "median):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<28} {m['unit']:<6} {m['better']:<7} "
              f"bound {m['bound']:.0%}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<28} {m['unit']:<6} {m['better']}")


def read_results(paths):
    """workload -> list of metric dicts, in the order given."""
    out = {}
    for p in paths:
        with open(p) as f:
            doc = json.load(f)
        if doc.get("trace") != 0:
            fail(f"{p}: not an end-to-end (--trace 0) result")
        if not doc["result"]["correct"]:
            fail(f"{p}: run reported failed checks")
        out.setdefault(doc["workload"], []).append(
            {k: v["value"] for k, v in doc["result"]["metrics"].items()})
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def compare(argv):
    if "--" not in argv:
        fail("--compare: usage: --compare A.json... -- B.json...")
    cut = argv.index("--")
    a_runs, b_runs = read_results(argv[:cut]), read_results(argv[cut + 1:])
    spec = load_spec()
    rows = [("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
             "change", "bound", "verdict")]
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a_runs or name not in b_runs:
            continue
        for m in spec["end_to_end"]:
            a = [r[m["name"]] for r in a_runs[name]]
            b = [r[m["name"]] for r in b_runs[name]]
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            sign = 1.0 if m["better"] == "higher" else -1.0
            # Positive = B better than A, as a share of A's median.
            change = sign * (bm - am) / abs(am) if am else 0.0
            spread = max((a3 - a1) / abs(am) if am else 0.0,
                         (b3 - b1) / abs(bm) if bm else 0.0)
            pairs = min(len(a), len(b))
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            if change < -m["bound"]:
                verdict = "regression"
            elif all(sign * (y - x) > 0 for x in a for y in b):
                verdict = "better in every run"
            elif spread > m["bound"]:
                verdict = "unresolved (spread > bound)"
            elif change > 0 and wins >= 0.9 * pairs and abs(bm - am) > a3 - a1:
                verdict = f"gain ({wins}/{pairs} pairs)"
            else:
                verdict = "within bound"
            rows.append((name, m["name"], f"{am:.6g} [{a1:.6g}, {a3:.6g}]",
                         f"{bm:.6g} [{b1:.6g}, {b3:.6g}]", f"{change:+.1%}",
                         f"{m['bound']:.0%}", verdict))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def main(argv):
    if argv[:1] == ["--list"]:
        print_list()
        return 0
    if argv[:1] == ["--compare"]:
        compare(argv[1:])
        return 0
    build()
    return run_workloads(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

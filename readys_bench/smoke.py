#!/usr/bin/env python3
"""Smoke test for readys_bench (ctest bench_smoke, label bench).

    python3 smoke.py <readys_bench binary> <BENCHMARK.json>

Runs every workload of BENCHMARK.json at --scale 0.01, untraced and traced,
and checks that each run passes its own output checks and emits exactly the
metrics BENCHMARK.json names, with the same units. Checks that --out writes
a result, a span trace and a manifest that parse as JSON, and that bad
command lines exit 2 without printing a result.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def main(binary, spec_path):
    spec = json.loads(Path(spec_path).read_text())
    errors = []

    listed = subprocess.run([binary, "--list"], capture_output=True, text=True)
    names = listed.stdout.splitlines()[0].split()[1:]
    if names != [w["name"] for w in spec["workloads"]]:
        errors.append(f"--list workloads {names} differ from BENCHMARK.json")

    tables = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    with tempfile.TemporaryDirectory() as tmp:
        for w in spec["workloads"]:
            for trace, table in tables.items():
                out = Path(tmp) / f"{w['name']}.{trace}.json"
                cmd = [binary, "--workload", w["name"], "--seed", "7",
                       "--scale", "0.01", "--seconds", "0", "--trace", trace,
                       "--out", str(out)]
                p = subprocess.run(cmd, capture_output=True, text=True)
                where = f"{w['name']} --trace {trace}"
                if p.returncode != 0:
                    errors.append(f"{where}: exit {p.returncode}: "
                                  f"{p.stderr.strip()[-400:]}")
                    continue
                result = json.loads(p.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    errors.append(f"{where}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"] != 0:
                    errors.append(f"{where}: checks failed")
                want = {m["name"]: m["unit"] for m in table}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    errors.append(f"{where}: metrics {got} != {want}")
                saved = json.loads(out.read_text())
                if saved["result"] != result:
                    errors.append(f"{where}: --out result differs from stdout")
                json.loads(Path(str(out) + ".manifest.json").read_text())
                if trace == "1":
                    json.loads(Path(str(out) + ".trace.json").read_text())

    bad = [["--workload", "serve_mixed", "--seed", "12x"],
           ["--workload", "serve_mixed", "--seed", "1", "--bogus", "1"],
           ["--workload", "no_such_workload", "--seed", "1"],
           ["--workload", "serve_mixed", "--seed", "1", "--seconds", "1e"],
           ["--workload", "serve_mixed", "--seed", "1", "--trace", "2"],
           ["--workload", "serve_mixed"]]
    for args in bad:
        p = subprocess.run([binary] + args, capture_output=True, text=True)
        if p.returncode != 2 or p.stdout.strip():
            errors.append(f"{' '.join(args)}: exit {p.returncode}, "
                          f"stdout {p.stdout.strip()!r}")

    for e in errors:
        print(f"bench_smoke: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: smoke.py <readys_bench binary> <BENCHMARK.json>")
    sys.exit(main(sys.argv[1], sys.argv[2]))

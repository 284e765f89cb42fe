#!/usr/bin/env python3
"""Smoke test of ckptfi_perf: every workload at tiny size, untraced and traced.

Checks that each run prints every metric BENCHMARK.json names, with its unit,
both in its report and in its final JSON line; that the fleet's artifact is
byte-identical to the in-process one for the same seed; and that a
deliberately corrupted reference row fails the run.

usage: smoke_test.py PATH/TO/ckptfi_perf PATH/TO/BENCHMARK.json WORKDIR
"""
import json
import re
import subprocess
import sys


def run(exe, workdir, workload, trace, *extra):
    cmd = [exe, "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--tiny", "--workdir", workdir, *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p, result


def main():
    exe, bench_path, workdir = sys.argv[1:4]
    with open(bench_path) as f:
        bench = json.load(f)
    failures = []
    crcs = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            p, result = run(exe, workdir, workload, trace)
            tag = f"{workload} --trace {trace}"
            if p.returncode != 0 or result is None:
                failures.append(f"{tag}: exit {p.returncode}\n{p.stderr}")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{tag}: failed {result['failed']}")
            if sorted(result["metrics"]) != sorted(s["name"] for s in specs):
                failures.append(f"{tag}: metrics {sorted(result['metrics'])}")
            for spec in specs:
                name, unit = spec["name"], spec["unit"]
                got = result["metrics"].get(name, {}).get("unit")
                if got != unit:
                    failures.append(f"{tag}: {name} unit {got!r}, want {unit!r}")
                if not re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+\d+$",
                                 p.stdout, re.M):
                    failures.append(f"{tag}: report lacks '{name} ... {unit} n'")
            m = re.search(r"artifact crc32 ([0-9a-f]{8})", p.stdout)
            if trace == 0 and m:
                crcs[workload] = m.group(1)
    if crcs.get("fleet_grid") != crcs.get("train_grid"):
        failures.append(f"fleet artifact crc {crcs.get('fleet_grid')} != "
                        f"in-process {crcs.get('train_grid')}")

    p, result = run(exe, workdir, "predict_deep", 0, "--corrupt-reference")
    if p.returncode == 0 or result is None or result["correct"] or result["failed"] < 1:
        failures.append(f"corrupted reference row not caught: exit {p.returncode}, "
                        f"result {result}")

    for f in failures:
        print("FAIL:", f)
    print("smoke:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

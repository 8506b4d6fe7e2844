#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/smoke_test.py

Runs every workload of BENCHMARK.json at tiny size (--tiny), untraced and
traced, through e2ebench/run.py, and checks each run's contract: exit code
0, a last stdout line that is one JSON object with exactly the keys
correct/attempted/failed/metrics, a passing correctness gate, and every
end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json present
with its unit and a finite value. Exits 1 on the first violation.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "..", "BENCHMARK.json")


def check_run(spec, workload, trace):
    command = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "2",
        "--trace", str(trace), "--tiny"]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    where = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        return "%s: exit code %d\n%s" % (where, proc.returncode,
                                        proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return "%s: no output" % where
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return "%s: last line is not JSON: %r" % (where, lines[-1][:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "%s: result keys %s" % (where, sorted(result))
    if result["correct"] is not True:
        return "%s: correctness gate failed\n%s" % (where, proc.stderr[-2000:])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "%s: attempted %r" % (where, result["attempted"])
    if not isinstance(result["failed"], int) or result["failed"] != 0:
        return "%s: failed %r" % (where, result["failed"])
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        missing = {m["name"] for m in expected} - set(metrics)
        extra = set(metrics) - {m["name"] for m in expected}
        return "%s: missing %s, unexpected %s" % (where, sorted(missing),
                                                  sorted(extra))
    for m in expected:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            return "%s: %s has unit %r, want %r" % (where, m["name"],
                                                   got.get("unit"), m["unit"])
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s: %s value %r" % (where, m["name"], value)
    return None


def main():
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            error = check_run(spec, workload, trace)
            if error:
                print("FAIL " + error)
                return 1
            print("ok   %s trace=%d" % (workload, trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

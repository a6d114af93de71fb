#!/usr/bin/env python3
"""Fail unless a perfbench run passed its own correctness checks.

perfbench (perfbench/perfbench.cc) checks that every produced record
reached a segment, that snapshots hold only known, uncorrupted,
unique records, and that the segments decode — but it exits 0 either
way, and perfbench/run.py only validates the shape of the result. The
verdict is in the last stdout line, one JSON object:

    {"correct": B, "attempted": N, "failed": N, "metrics": {...}}

This script reads the captured stdout of one run per FILE and exits 0
iff every last line parses with "correct": true and "failed": 0. It
prints the metrics it saw; timings are reported, never gated.

Usage: check_perfbench_result.py FILE [FILE...]
"""

import json
import sys


def check(path):
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        return f"{path}: no output"
    try:
        res = json.loads(lines[-1])
    except ValueError as e:
        return f"{path}: last line is not JSON ({e})"
    if not isinstance(res, dict):
        return f"{path}: last line is not a JSON object"
    metrics = res.get("metrics", {})
    shown = ", ".join(
        f"{k}={v.get('value')}" for k, v in sorted(metrics.items())
        if isinstance(v, dict))
    print(f"{path}: correct={res.get('correct')} "
          f"attempted={res.get('attempted')} failed={res.get('failed')}"
          f" {shown}")
    if res.get("correct") is not True:
        return f"{path}: run reports correct != true"
    if res.get("failed") != 0:
        return f"{path}: run reports failed = {res.get('failed')}"
    return None


def main(paths):
    if not paths:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    errors = [e for e in (check(p) for p in paths) if e]
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Fail unless a perfbench run passed its own correctness checks.

perfbench (perfbench/perfbench.cc) checks that every produced record
reached a segment, that snapshots hold only known, uncorrupted,
unique records, and that the segments decode — but it exits 0 either
way, and perfbench/run.py only validates the shape of the result. The
verdict is in the last stdout line, one JSON object:

    {"correct": B, "attempted": N, "failed": N, "metrics": {...}}

This script reads the captured stdout of one run per FILE and exits 0
iff every last line parses with "correct": true and "failed": 0, and
every metric named by a --max NAME=VALUE is present and at most VALUE.
It prints the metrics it saw.

What is gated: the verdict, plus the ceilings given. CI gives ceilings
only for the deterministic counts of a --trace 1 run
(shared_rmws_per_record, advances_per_krecord), which a change to the
write protocol moves and noise does not. Timings are reported, never
gated.

Usage: check_perfbench_result.py [--max NAME=VALUE ...] FILE [FILE...]
"""

import argparse
import json
import sys


def ceiling(spec):
    name, _, value = spec.partition("=")
    try:
        if name:
            return name, float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {spec!r}")


def check(path, ceilings):
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        return [f"{path}: no output"]
    try:
        res = json.loads(lines[-1])
    except ValueError as e:
        return [f"{path}: last line is not JSON ({e})"]
    if not isinstance(res, dict):
        return [f"{path}: last line is not a JSON object"]
    metrics = res.get("metrics", {})
    shown = ", ".join(
        f"{k}={v.get('value')}" for k, v in sorted(metrics.items())
        if isinstance(v, dict))
    print(f"{path}: correct={res.get('correct')} "
          f"attempted={res.get('attempted')} failed={res.get('failed')}"
          f" {shown}")
    errors = []
    if res.get("correct") is not True:
        errors.append(f"{path}: run reports correct != true")
    if res.get("failed") != 0:
        errors.append(f"{path}: run reports failed = {res.get('failed')}")
    for name, limit in ceilings:
        metric = metrics.get(name)
        value = metric.get("value") if isinstance(metric, dict) else None
        if not isinstance(value, (int, float)):
            errors.append(f"{path}: metric {name} missing")
        elif value > limit:
            errors.append(f"{path}: {name} = {value} above {limit}")
    return errors


def main(argv):
    ap = argparse.ArgumentParser(
        usage=__doc__.strip().splitlines()[-1].removeprefix("Usage: "))
    ap.add_argument("--max", type=ceiling, action="append", default=[],
                    metavar="NAME=VALUE",
                    help="fail unless metric NAME is present and <= VALUE")
    ap.add_argument("files", nargs="+", metavar="FILE")
    args = ap.parse_args(argv)
    errors = [e for p in args.files for e in check(p, args.max)]
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

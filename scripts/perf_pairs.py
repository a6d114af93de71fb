#!/usr/bin/env python3
"""Alternating base/head pairs of perfbench runs, summarized.

    python3 scripts/perf_pairs.py --base REV [--head REV] \\
        [--workloads leased,single,level3] [--seeds 11-20] \\
        [--seconds 30] [--trace 0|1] [--json OUT] [--workdir DIR]
    python3 scripts/perf_pairs.py --self-test

Run from the repository root. The base revision (and --head, when
given) is exported with `git archive` into DIR/<sha>/src; without
--head the working tree is the head side. Each side builds into its
own CARGO_TARGET_DIR (DIR/<sha>/build, or DIR/worktree/build for the
working tree), so the two binaries never share a build tree. A
one-second warm-up run per side builds it.

Then, for every workload and seed, it runs one pair: the same seed
through each side's own perfbench/run.py, the base first on odd seeds
and the head first on even ones, so drift over the whole run lands on
both sides alike.

It prints one Markdown row per metric: each side's median [q1, q3]
over its runs, the change in median, the pairs the head wins by
BENCHMARK.json's `better` direction (ties count for neither side) and
the metric's bound (BENCHMARK.json's end-to-end metrics; a --trace 1
run reports the per-layer metrics instead, which have no bound).
--json writes every run's result and the summary.

Host load is read around every run, never changed: the idle + iowait
share of the /proc/stat CPU jiffies that passed during the run, and
the runnable task count from /proc/loadavg (the mean of the readings
before and after; it counts this script's own reader too). Each run's
--json record stores them as "host", and each side's medians are
printed under the table, so a pair set taken on a busy host shows it.

Exit status: 0 when every run produced a result with "correct": true
and "failed": 0; 1 otherwise (the table is still printed for the runs
that did); 2 on bad arguments. --self-test checks the statistics and
the verdict logic on canned results, builds nothing and runs nothing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MINUS = "−"


def log(msg):
    print(f"perf_pairs: {msg}", file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def parse_seeds(spec):
    seeds = []
    try:
        for part in spec.split(","):
            lo, sep, hi = part.partition("-")
            if sep:
                seeds.extend(range(int(lo), int(hi) + 1))
            else:
                seeds.append(int(part))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {spec!r}")
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"bad seed list {spec!r}")
    return seeds


# --- statistics ----------------------------------------------------------


def quartiles(values):
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt_value(v, unit):
    if unit == "s":
        return f"{v * 1e3:.3f}"
    if unit in ("ratio", "count"):
        return f"{v:.4f}"
    if unit in ("ms", "us"):
        return f"{v:.2f}"
    return f"{v:.1f}"


def fmt_side(values, unit):
    q1, med, q3 = quartiles(values)
    suffix = " ms" if unit == "s" else ""
    return (f"{fmt_value(med, unit)}{suffix} "
            f"[{fmt_value(q1, unit)}, {fmt_value(q3, unit)}]")


def fmt_delta(base_med, head_med):
    if base_med == 0:
        return "n/a"
    d = (head_med - base_med) / base_med * 100.0
    sign = "+" if d >= 0 else MINUS
    return f"{sign}{abs(d):.1f}%"


def summarize(pairs, metrics):
    """One summary row per metric with values on both sides of a pair.

    @p pairs is a list of (workload, seed, base_result, head_result),
    results as run.py prints them (None for a run that failed);
    @p metrics a list of BENCHMARK.json metric specs.
    """
    rows = []
    workloads = []
    for w, _, _, _ in pairs:
        if w not in workloads:
            workloads.append(w)
    for w in workloads:
        for spec in metrics:
            name = spec["name"]
            base, head, wins, n = [], [], 0, 0
            for pw, _, b, h in pairs:
                if pw != w or b is None or h is None:
                    continue
                bv = b["metrics"].get(name, {}).get("value")
                hv = h["metrics"].get(name, {}).get("value")
                if not isinstance(bv, (int, float)) or \
                        not isinstance(hv, (int, float)):
                    continue
                base.append(bv)
                head.append(hv)
                n += 1
                if spec["better"] == "lower" and hv < bv:
                    wins += 1
                elif spec["better"] == "higher" and hv > bv:
                    wins += 1
            if not n:
                continue
            bq, hq = quartiles(base), quartiles(head)
            rows.append({
                "workload": w, "metric": name, "unit": spec["unit"],
                "better": spec["better"], "bound": spec.get("bound"),
                "pairs": n, "wins": wins,
                "base": {"q1": bq[0], "median": bq[1], "q3": bq[2],
                         "values": base},
                "head": {"q1": hq[0], "median": hq[1], "q3": hq[2],
                         "values": head},
                "delta": ((hq[1] - bq[1]) / bq[1]) if bq[1] else None,
            })
    return rows


def markdown(rows):
    out = ["| workload | metric | base | head | Δ median | wins "
           "| bound |", "|---|---|---|---|---|---|---|"]
    for r in rows:
        bound = (f"{r['bound'] * 100:g}%" if r["bound"] is not None
                 else "—")
        out.append(
            f"| {r['workload']} | {r['metric']} "
            f"| {fmt_side(r['base']['values'], r['unit'])} "
            f"| {fmt_side(r['head']['values'], r['unit'])} "
            f"| {fmt_delta(r['base']['median'], r['head']['median'])} "
            f"| {r['wins']}/{r['pairs']} | {bound} |")
    return "\n".join(out)


def verdict(result):
    """None when @p result is a correct run, else why it is not."""
    if result is None:
        return "no result"
    if result.get("correct") is not True:
        return "correct != true"
    if result.get("failed") != 0:
        return f"failed = {result.get('failed')}"
    return None


# --- host load -----------------------------------------------------------


def parse_proc_stat(text):
    """(idle + iowait, total) jiffies of the aggregate "cpu" line."""
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            # user nice system idle iowait irq softirq steal; guest
            # time is already counted in user and nice.
            j = [int(v) for v in fields[1:9]]
            return j[3] + j[4], sum(j)
    raise ValueError("no aggregate cpu line in /proc/stat")


def parse_loadavg(text):
    """Runnable tasks: the numerator of /proc/loadavg's fourth field."""
    return int(text.split()[3].split("/")[0])


def read_host():
    """A host-load reading, or None where /proc is not there."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            stat = parse_proc_stat(f.read())
        with open("/proc/loadavg", encoding="ascii") as f:
            runnable = parse_loadavg(f.read())
    except (OSError, ValueError, IndexError):
        return None
    return {"stat": stat, "runnable": runnable}


def host_load(before, after):
    """What a run's "host" record holds, from readings around it."""
    if before is None or after is None:
        return None
    idle = after["stat"][0] - before["stat"][0]
    total = after["stat"][1] - before["stat"][1]
    return {"idle_share": idle / total if total > 0 else None,
            "runnable": (before["runnable"] + after["runnable"]) / 2}


def host_summary(runs):
    """One line per side: the medians of its runs' host readings."""
    out = []
    for side in ("base", "head"):
        hosts = [r["host"] for r in runs
                 if r["side"] == side and r.get("host")
                 and r["host"]["idle_share"] is not None]
        if not hosts:
            out.append(f"host, {side}: not read")
            continue
        idle = statistics.median(h["idle_share"] for h in hosts)
        runnable = statistics.median(h["runnable"] for h in hosts)
        out.append(f"host, {side}: idle+iowait {idle * 100:.1f}%, "
                   f"runnable {runnable:.1f} (medians of {len(hosts)} "
                   f"runs)")
    return "\n".join(out)


# --- running -------------------------------------------------------------


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(rev, workdir):
    """Source tree of @p rev under @p workdir, exported once."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    side = os.path.join(workdir, sha[:12])
    src = os.path.join(side, "src")
    if not os.path.isdir(src):
        tmp = src + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
        os.rename(tmp, src)
    return {"label": sha[:12], "src": src,
            "build": os.path.join(side, "build")}


def run_once(side, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=side["build"])
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side["src"], env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_pairs(args):
    """(sides, runs, pairs), or None when a side does not build."""
    workdir = os.path.abspath(args.workdir)
    sides = {"base": export(args.base, workdir)}
    if args.head:
        sides["head"] = export(args.head, workdir)
    else:
        sides["head"] = {"label": "working tree", "src": ROOT,
                         "build": os.path.join(workdir, "worktree",
                                               "build")}
    for side in sides.values():
        log(f"building {side['label']} (warm-up run)")
        if run_once(side, args.workloads[0], 0, 1, args.trace) is None:
            log(f"{side['label']}: build or warm-up run failed")
            return None
    runs, pairs = [], []
    for w in args.workloads:
        for seed in args.seeds:
            order = ["base", "head"] if seed % 2 else ["head", "base"]
            res = {}
            for name in order:
                before = read_host()
                r = run_once(sides[name], w, seed, args.seconds,
                             args.trace)
                res[name] = r
                runs.append({"workload": w, "seed": seed, "side": name,
                             "first": name == order[0], "result": r,
                             "host": host_load(before, read_host())})
                ns = (r or {}).get("metrics", {}).get("record_ns", {})
                shown = f", record_ns {ns['value']}" if ns else ""
                log(f"{w} seed {seed} {name}: {verdict(r) or 'ok'}{shown}")
            pairs.append((w, seed, res["base"], res["head"]))
    return sides, runs, pairs


def self_test():
    bench = {"end_to_end": [
        {"name": "record_ns", "unit": "ns", "better": "lower",
         "bound": 0.25},
        {"name": "retention", "unit": "ratio", "better": "higher",
         "bound": 0.02},
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": 0.25}]}

    def res(ns, ret, setup, correct=True, failed=0):
        return {"correct": correct, "attempted": 100, "failed": failed,
                "metrics": {"record_ns": {"value": ns, "unit": "ns"},
                            "retention": {"value": ret, "unit": "ratio"},
                            "setup_s": {"value": setup, "unit": "s"}}}

    base_ns = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    head_ns = [9, 19, 29, 39, 49, 59, 69, 79, 95, 100]  # 8 wins, 1 tie
    pairs = [("single", 11 + i,
              res(b, 0.98, 0.001), res(h, 0.98 + (i % 2) * 0.001, 0.001))
             for i, (b, h) in enumerate(zip(base_ns, head_ns))]
    pairs.append(("leased", 11, res(5, 0.5, 0.002), None))
    rows = summarize(pairs, bench["end_to_end"])
    checks = []

    def expect(cond, what):
        checks.append(what)
        if not cond:
            raise AssertionError(what)

    by = {(r["workload"], r["metric"]): r for r in rows}
    ns = by[("single", "record_ns")]
    expect((ns["base"]["q1"], ns["base"]["median"], ns["base"]["q3"]) ==
           (32.5, 55.0, 77.5), "inclusive quartiles of 10..100")
    expect(ns["head"]["median"] == 54.0, "head median")
    expect(ns["wins"] == 8 and ns["pairs"] == 10,
           "lower-is-better wins, a tie counts for neither side")
    expect(by[("single", "retention")]["wins"] == 5,
           "higher-is-better wins")
    expect(("leased", "record_ns") not in by,
           "a pair with a failed run is left out of the statistics")
    expect(fmt_delta(55.0, 54.0) == MINUS + "1.8%", "delta sign and digits")
    expect(fmt_delta(100.0, 125.0) == "+25.0%", "positive delta")
    table = markdown(rows).splitlines()
    expect(table[2] == "| single | record_ns | 55.0 [32.5, 77.5] "
           "| 54.0 [31.5, 76.5] | " + MINUS + "1.8% | 8/10 | 25% |",
           "record_ns row")
    expect(table[4].startswith("| single | setup_s | 1.000 ms "
                               "[1.000, 1.000] |"),
           "setup_s shown in ms")
    expect(quartiles([3.0]) == (3.0, 3.0, 3.0), "one run")
    expect(verdict(res(1, 1, 1)) is None, "a correct run passes")
    expect(verdict(res(1, 1, 1, correct=False)) is not None,
           "correct: false fails")
    expect(verdict(res(1, 1, 1, failed=2)) is not None, "failed > 0 fails")
    expect(verdict(None) is not None, "a missing result fails")
    expect(parse_seeds("11-13,20") == [11, 12, 13, 20], "seed list")
    stat0 = ("cpu  100 5 50 800 40 3 2 0 7 0\n"
             "cpu0 50 2 25 400 20 1 1 0 3 0\nintr 1 2 3\n")
    stat1 = ("cpu  160 5 70 1100 60 3 2 0 9 0\n"
             "cpu0 80 2 35 550 30 1 1 0 4 0\nintr 4 5 6\n")
    expect(parse_proc_stat(stat0) == (840, 1000),
           "idle + iowait and total jiffies, guest time left out")
    expect(parse_loadavg("0.52 0.48 0.40 3/412 9876\n") == 3,
           "runnable count")
    host = host_load({"stat": parse_proc_stat(stat0), "runnable": 3},
                     {"stat": parse_proc_stat(stat1), "runnable": 2})
    expect(host == {"idle_share": 320 / 400, "runnable": 2.5},
           "host load over a run")
    expect(host_load(None, {"stat": (1, 2), "runnable": 1}) is None,
           "no /proc, no host record")
    canned = [{"side": "base", "host": {"idle_share": v, "runnable": 1}}
              for v in (0.9, 0.8, 0.7)]
    canned.append({"side": "head", "host": None})
    expect(host_summary(canned).splitlines() ==
           ["host, base: idle+iowait 80.0%, runnable 1.0 (medians of 3 "
            "runs)", "host, head: not read"], "host summary lines")
    print(f"self-test OK ({len(checks)} checks)")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--base", metavar="REV")
    ap.add_argument("--head", metavar="REV",
                    help="default: the working tree")
    ap.add_argument("--workloads", metavar="W[,W...]",
                    help="default: every BENCHMARK.json workload")
    ap.add_argument("--seeds", type=parse_seeds, default="11-20",
                    metavar="A-B[,C...]")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", metavar="OUT")
    ap.add_argument("--workdir", default=".perf_pairs", metavar="DIR",
                    help="exports and build trees (default .perf_pairs)")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.base:
        ap.error("--base is required")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    bench = load_benchmark()
    known = [w["name"] for w in bench["workloads"]]
    args.workloads = (args.workloads.split(",") if args.workloads
                      else known)
    for w in args.workloads:
        if w not in known:
            ap.error(f"unknown workload {w!r} (have {', '.join(known)})")

    out = run_pairs(args)
    if out is None:
        return 1
    sides, runs, pairs = out
    base, head = sides["base"], sides["head"]
    rows = summarize(pairs, bench["per_layer"] if args.trace
                     else bench["end_to_end"])
    print(f"base {base['label']}, head {head['label']}: "
          f"{len(args.seeds)} pairs per workload, {args.seconds} s, "
          f"--trace {args.trace}; odd seeds run the base first\n")
    print(markdown(rows))
    print()
    print(host_summary(runs))
    bad = [f"{r['workload']} seed {r['seed']} {r['side']}: {why}"
           for r in runs if (why := verdict(r["result"]))]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"base": base["label"], "head": head["label"],
                       "seconds": args.seconds, "trace": args.trace,
                       "seeds": args.seeds, "runs": runs,
                       "summary": rows, "failures": bad}, f, indent=1)
            f.write("\n")
    for b in bad:
        log(f"FAIL {b}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

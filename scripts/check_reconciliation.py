#!/usr/bin/env python3
"""Fail unless a segment directory reconciles exactly with btraced.

The daemon counts every drained entry at drain time and exports the
counts as Prometheus counters (--metrics-out); btrace_stats counts the
same entries again by re-reading the segments on disk (--json). As
long as retention has not deleted a segment, the two independent paths
must agree exactly (DESIGN.md §13):

  - records, payload bytes and wall-clock-stamped records;
  - the loss counters: overwritten positions, skipped and abandoned
    blocks;
  - one producer row per labeled btraced_producer_records_total series,
    with equal counts (the table must not be truncated: raise --top);
  - every segment header agrees with its own record scan.

Scenario-specific expectations (which producers or categories a run
used) belong to the caller.

Usage: check_reconciliation.py STATS_JSON METRICS_PROM
"""

import json
import re
import sys


def read_series(path):
    """Sum of each Prometheus series' samples, keyed by name{labels}."""
    series = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            name, _, value = line.rpartition(" ")
            series[name] = series.get(name, 0) + float(value)
    return series


def reconcile(doc, series):
    def total(base):
        return int(sum(v for k, v in series.items()
                       if k == base or k.startswith(base + "{")))

    errs = []
    if total("btraced_segments_deleted_total") != 0:
        errs.append("retention deleted segments; the directory no "
                    "longer holds every drained record "
                    "(raise btraced --max-segments)")
    for got, metric in (
        (doc["totals"]["records"], "btraced_entries_total"),
        (doc["totals"]["payload_bytes"], "btraced_payload_bytes_total"),
        (doc["totals"]["wall_stamped_records"],
         "btraced_lag_sampled_records_total"),
        (doc["retention"]["overwritten_positions"],
         "btraced_overwritten_positions_total"),
        (doc["retention"]["skipped_blocks"],
         "btraced_skipped_blocks_total"),
        (doc["retention"]["abandoned_blocks"],
         "btraced_abandoned_blocks_total"),
    ):
        if got != total(metric):
            errs.append("%s: segments say %d, daemon counted %d"
                        % (metric, got, total(metric)))

    # Per-producer attribution: every labeled daemon series must match
    # the offline per-producer table row for the same writer id.
    daemon_rows = {}
    for key, value in series.items():
        m = re.match(r'btraced_producer_records_total\{.*producer="(\d+)"',
                     key)
        if m:
            daemon_rows[int(m.group(1))] = int(value)
    stats_rows = {r["producer"]: r["records"] for r in doc["producers"]}
    if doc["producers_truncated"]:
        errs.append("producer table truncated; raise --top")
    elif daemon_rows != stats_rows:
        errs.append("producer rows differ: daemon %r vs stats %r"
                    % (daemon_rows, stats_rows))

    if doc["retention"]["header_scan_mismatch"]:
        errs.append("declared/scanned mismatch after a clean run")
    return errs


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__.split("\n\n")[-1])
        return 2
    with open(argv[1], encoding="utf-8") as f:
        doc = json.load(f)
    errs = reconcile(doc, read_series(argv[2]))
    for e in errs:
        sys.stderr.write("reconcile: %s\n" % e)
    if not errs:
        print("reconciled: %d records, %d producer rows"
              % (doc["totals"]["records"], len(doc["producers"])))
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

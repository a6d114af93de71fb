#!/usr/bin/env bash
# End-to-end multi-process smoke test (DESIGN.md §11): btraced creates
# a shared file arena and drains it while producer processes attach,
# write through leases, and — one of them — dies by SIGKILL holding a
# lease open. The script then asserts the full contract:
#
#   - clean producers write every event and exit 0;
#   - the daemon's sweep proves the killed producer dead and reclaims
#     its lease (metrics: reclaimed leases/attachments >= 1);
#   - the rotating segments decode with btrace_inspect;
#   - btrace_stats reconciles the segment directory exactly against
#     the daemon's own drain counters (DESIGN.md §13), its JSON passes
#     scripts/check_stats_schema.py, and a --follow run observes the
#     directory growing while the daemon drains;
#   - the metrics snapshot is rewritten mid-run and on SIGTERM, not
#     only at clean exit;
#   - error paths map to the documented exit codes (3 = no such
#     arena, 2 = bad usage);
#   - a restarted btraced resumes the segment directory: every segment
#     of the first run keeps its sha256, and btrace_stats reads the
#     directory as both runs (two attach generations, records = the
#     two daemons' counts, no rotation gap);
#   - a streaming btraced (--close-active 0) drains every record the
#     producers wrote exactly once: segments = btraced_entries_total =
#     records written, and no (writer, stamp) appears twice.
#
# Usage: scripts/multiproc_smoke.sh [BUILD_DIR]   (default: build)

set -u

BUILD_DIR="${1:-build}"
BTRACED="$BUILD_DIR/tools/btraced"
PRODUCER="$BUILD_DIR/tools/btrace_producer"
INSPECT="$BUILD_DIR/tools/btrace_inspect"
STATS="$BUILD_DIR/tools/btrace_stats"
SCRIPTS="$(cd "$(dirname "$0")" && pwd)"

for bin in "$BTRACED" "$PRODUCER" "$INSPECT" "$STATS"; do
    if [ ! -x "$bin" ]; then
        echo "missing tool: $bin (build the 'btraced', 'btrace_producer'," \
             "'btrace_inspect' and 'btrace_stats' targets first)" >&2
        exit 1
    fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
ARENA="$WORK/ring.arena"
SEGS="$WORK/segs"
METRICS="$WORK/metrics.prom"
EVENTS_PER_PRODUCER=5000

fail() { echo "FAIL: $*" >&2; exit 1; }

# Metric helper: integer value of a btraced counter in the Prom dump
# (the first run's, or the dump named by $2).
metric() {
    awk -v name="$1" '$1 ~ "^"name"([{]|$)" { print int($2) }' \
        "${2:-$METRICS}"
}

echo "== 1. exit-code contract on error paths"
"$PRODUCER" --arena "$WORK/nonexistent.arena" --events 1 2>/dev/null
[ $? -eq 3 ] || fail "attach to missing arena should exit 3 (not-found)"
"$PRODUCER" --bogus-flag 2>/dev/null
[ $? -eq 2 ] || fail "bad usage should exit 2 (invalid-argument)"
for flag in --help --bogus-flag; do
    "$INSPECT" "$flag" 2>/dev/null
    [ $? -eq 2 ] || fail "btrace_inspect $flag should print usage, exit 2"
done

echo "== 2. daemon creates the arena and drains it"
"$BTRACED" --arena "$ARENA" --create --out "$SEGS" \
    --blocks 3072 --active 192 --block-bytes 4096 --cores 8 \
    --interval-ms 5 --sweep-every 4 --duration 6 --close-active 1 \
    --segment-bytes $((1 << 20)) --metrics-out "$METRICS" &
DAEMON_PID=$!

# Wait until the arena actually accepts attachments. File size is not
# readiness: the owner sizes the file before stamping its headers, and
# an attacher in that window gets the retryable Busy exit (7). Probe
# with a real one-event producer until the attach goes through.
READY=1
for _ in $(seq 1 100); do
    "$PRODUCER" --arena "$ARENA" --events 1 --core 7 \
        > /dev/null 2>&1
    READY=$?
    [ "$READY" -eq 0 ] && break
    sleep 0.05
done
[ "$READY" -eq 0 ] || fail "daemon never created $ARENA (probe exit $READY)"

# Tail the segment directory while it is still being written: the
# follow loop must observe the directory growing, and its final JSON
# report (emitted when --duration elapses, after the daemon exits)
# must pass the schema check like any one-shot report.
"$STATS" "$SEGS" --follow --interval-ms 250 --duration 8 \
    --json="$WORK/follow.json" > "$WORK/follow.out" 2>/dev/null &
FOLLOW_PID=$!

echo "== 3. clean producers write through leases"
# Wall-clock stamps feed the daemon's drain-lag histogram and the
# offline throughput buckets; distinct categories exercise the
# per-category attribution in the v2 segment headers.
"$PRODUCER" --arena "$ARENA" --events "$EVENTS_PER_PRODUCER" --core 1 \
    --category 2 --wallclock-stamps > "$WORK/p1.out" &
P1=$!
"$PRODUCER" --arena "$ARENA" --events "$EVENTS_PER_PRODUCER" --core 2 \
    --category 5 --wallclock-stamps > "$WORK/p2.out" &
P2=$!

echo "== 4. one producer dies by SIGKILL holding a lease"
"$PRODUCER" --arena "$ARENA" --events 100 --core 3 --hold-lease \
    > "$WORK/holder.out" &
HOLDER=$!
for _ in $(seq 1 100); do
    grep -q HOLDING "$WORK/holder.out" 2>/dev/null && break
    sleep 0.05
done
grep -q HOLDING "$WORK/holder.out" || fail "holder never signaled"
kill -9 "$HOLDER"

wait "$P1" || fail "producer 1 exited nonzero"
wait "$P2" || fail "producer 2 exited nonzero"
[ "$(cat "$WORK/p1.out")" = "$EVENTS_PER_PRODUCER" ] \
    || fail "producer 1 wrote $(cat "$WORK/p1.out") events"
[ "$(cat "$WORK/p2.out")" = "$EVENTS_PER_PRODUCER" ] \
    || fail "producer 2 wrote $(cat "$WORK/p2.out") events"

echo "== 5. metrics snapshot is rewritten mid-run, not only at exit"
# The daemon still has seconds to live; the snapshot must already be
# on disk (rewritten every drain interval) for crash post-mortems.
for _ in $(seq 1 100); do
    [ -s "$METRICS" ] && break
    sleep 0.05
done
kill -0 "$DAEMON_PID" 2>/dev/null \
    || fail "daemon exited before the mid-run metrics check could run"
[ -s "$METRICS" ] || fail "metrics snapshot not rewritten during the run"
[ "$(metric btraced_drains_total)" -ge 1 ] \
    || fail "mid-run metrics snapshot shows no drains"

# A second producer wave, long after the --follow tail's first scan:
# the tail must observe the directory grow between ticks (the first
# wave can drain inside a single 250 ms interval on a fast machine).
sleep 1
"$PRODUCER" --arena "$ARENA" --events "$EVENTS_PER_PRODUCER" --core 4 \
    --category 2 --wallclock-stamps > "$WORK/p3.out" &
P3=$!
wait "$P3" || fail "second-wave producer exited nonzero"
[ "$(cat "$WORK/p3.out")" = "$EVENTS_PER_PRODUCER" ] \
    || fail "second-wave producer wrote $(cat "$WORK/p3.out") events"

wait "$DAEMON_PID" || fail "btraced exited nonzero"

echo "== 6. sweep reclaimed the dead producer"
[ -s "$METRICS" ] || fail "no metrics dump"
[ "$(metric btraced_reclaimed_leases_total)" -ge 1 ] \
    || fail "no lease was reclaimed"
[ "$(metric btraced_cleared_attachments_total)" -ge 1 ] \
    || fail "dead attachment was not cleared"
[ "$(metric btraced_sweeps_total)" -ge 1 ] || fail "no sweep ran"

echo "== 7. segments decode and validate"
ls "$SEGS"/segment-*.btrace >/dev/null 2>&1 || fail "no segments written"
TOTAL=0
for seg in "$SEGS"/segment-*.btrace; do
    "$INSPECT" "$seg" > "$WORK/inspect.out" || fail "cannot decode $seg"
    N=$(awk '/^dump:/ { print int($2) }' "$WORK/inspect.out")
    TOTAL=$((TOTAL + N))
done
# Both clean producers' events must be on disk (the holder's best-
# effort entries and overwrite loss make the exact total workload-
# dependent; the floor is what the contract guarantees under a
# keeping-up consumer).
DRAINED=$(metric btraced_entries_total)
[ "$TOTAL" -eq "$DRAINED" ] \
    || fail "segments hold $TOTAL entries, daemon counted $DRAINED"
[ "$TOTAL" -ge "$EVENTS_PER_PRODUCER" ] \
    || fail "suspiciously few entries on disk: $TOTAL"
# The validating directory walk must agree and find clean v2 headers.
"$INSPECT" --segments "$SEGS" > "$WORK/segments.out" \
    || fail "btrace_inspect --segments rejected the directory"
grep -q "clean close" "$WORK/segments.out" \
    || fail "no segment carries a clean-close v2 header"

echo "== 8. btrace_stats reconciles with the daemon counters"
"$STATS" "$SEGS" --top 64 --json="$WORK/stats.json" \
    > /dev/null || fail "btrace_stats failed"
python3 "$SCRIPTS/check_stats_schema.py" "$WORK/stats.json" \
    || fail "stats JSON fails the schema check"
# The general equalities (records, payload bytes, wall-stamped
# records, loss counters, per-producer rows, header/scan agreement)
# are shared with CI's stats-smoke job.
python3 "$SCRIPTS/check_reconciliation.py" "$WORK/stats.json" "$METRICS" \
    || fail "stats/metrics reconciliation"
# This scenario's own expectations: both clean producers have rows,
# and both trace categories they used are attributed.
python3 - "$WORK/stats.json" <<'PYEOF' || fail "stats scenario checks"
import json, sys

doc = json.load(open(sys.argv[1]))
errs = []
stats_rows = {r["producer"]: r["records"] for r in doc["producers"]}
if len(stats_rows) < 2:
    errs.append("expected at least the two clean producers, got %r"
                % stats_rows)
cats = {r["category"] for r in doc["categories"]}
for want in (2, 5):
    if want not in cats:
        errs.append("category %d missing from the report" % want)

for e in errs:
    sys.stderr.write("reconcile: %s\n" % e)
sys.exit(1 if errs else 0)
PYEOF

echo "== 9. the --follow tail observed the directory growing"
wait "$FOLLOW_PID" || fail "btrace_stats --follow exited nonzero"
[ "$(wc -l < "$WORK/follow.out")" -ge 2 ] \
    || fail "follow mode never saw the segment directory grow"
python3 "$SCRIPTS/check_stats_schema.py" "$WORK/follow.json" \
    || fail "follow-mode JSON fails the schema check"
# Tailing a segment the daemon held open must converge on exactly the
# state a post-hoc scan sees — no torn reads, no double counting.
python3 - "$WORK/follow.json" "$WORK/stats.json" <<'PYEOF' || fail "follow/one-shot mismatch"
import json, sys
follow = json.load(open(sys.argv[1]))
oneshot = json.load(open(sys.argv[2]))
if follow["totals"] != oneshot["totals"]:
    sys.stderr.write("follow totals %r != one-shot totals %r\n"
                     % (follow["totals"], oneshot["totals"]))
    sys.exit(1)
PYEOF

echo "== 10. SIGTERM still flushes the metrics snapshot"
TERM_ARENA="$WORK/term.arena"
TERM_METRICS="$WORK/term.prom"
"$BTRACED" --arena "$TERM_ARENA" --create --out "$WORK/term-segs" \
    --blocks 512 --active 64 --block-bytes 4096 --cores 4 \
    --interval-ms 20 --metrics-out "$TERM_METRICS" 2>/dev/null &
TERM_PID=$!
for _ in $(seq 1 100); do
    [ -s "$TERM_ARENA" ] && break
    sleep 0.05
done
sleep 0.3
kill -TERM "$TERM_PID"
wait "$TERM_PID" || fail "btraced exited nonzero after SIGTERM"
[ -s "$TERM_METRICS" ] || fail "SIGTERM exit left no metrics snapshot"
grep -q "btraced_drains_total" "$TERM_METRICS" \
    || fail "SIGTERM metrics snapshot is missing the drain counter"

echo "== 11. a late attach to the finished arena still works"
"$INSPECT" --arena "$ARENA" > /dev/null || fail "arena post-mortem failed"

echo "== 12. a restarted btraced resumes the segment directory"
# The restart attaches to the first run's arena, so its segments carry
# a second attach generation. A new producer wave gives it records of
# its own; it also drains what the ring still holds from the first run.
(cd "$SEGS" && sha256sum segment-*.btrace) > "$WORK/run1.sha256"
RESTART_METRICS="$WORK/restart.prom"
"$BTRACED" --arena "$ARENA" --out "$SEGS" --interval-ms 5 \
    --duration 2 --close-active 1 --segment-bytes $((1 << 20)) \
    --metrics-out "$RESTART_METRICS" 2>/dev/null &
RESTART_PID=$!
"$PRODUCER" --arena "$ARENA" --events "$EVENTS_PER_PRODUCER" --core 5 \
    --category 2 --wallclock-stamps > "$WORK/p4.out" \
    || fail "producer of the restarted run exited nonzero"
wait "$RESTART_PID" || fail "restarted btraced exited nonzero"
(cd "$SEGS" && sha256sum --check --quiet "$WORK/run1.sha256") \
    || fail "the restart changed a segment of the first run"
"$STATS" "$SEGS" --top 64 --json="$WORK/restart.json" > /dev/null \
    || fail "btrace_stats failed on the resumed directory"
python3 "$SCRIPTS/check_stats_schema.py" "$WORK/restart.json" \
    || fail "resumed-directory stats JSON fails the schema check"
"$INSPECT" --segments "$SEGS" > "$WORK/restart-segments.out" \
    || fail "btrace_inspect --segments rejected the resumed directory"
GENERATIONS=$(grep -o ' gen [0-9]*' "$WORK/restart-segments.out" \
    | sort -u | wc -l)
[ "$GENERATIONS" -eq 2 ] \
    || fail "resumed directory holds $GENERATIONS attach generation(s), want 2"
python3 - "$WORK/restart.json" "$(metric btraced_entries_total)" \
    "$(metric btraced_entries_total "$RESTART_METRICS")" <<'PYEOF' \
    || fail "resumed directory does not reconcile with both runs"
import json, sys

doc = json.load(open(sys.argv[1]))
run1, run2 = int(sys.argv[2]), int(sys.argv[3])
errs = []
if run2 < 1:
    errs.append("the restarted daemon drained nothing")
if doc["totals"]["records"] != run1 + run2:
    errs.append("segments hold %d records, the runs drained %d + %d"
                % (doc["totals"]["records"], run1, run2))
for key in ("rotation_gaps", "missing_indices", "dirty", "torn"):
    if doc["segments"][key] != 0:
        errs.append("segments.%s = %d" % (key, doc["segments"][key]))
for e in errs:
    sys.stderr.write("restart: %s\n" % e)
sys.exit(1 if errs else 0)
PYEOF

echo "== 13. a streaming btraced (--close-active 0) drains each record once"
# Streaming drains read open blocks' confirmed entries in place and
# read on from the same entry boundary next drain, the final drain on
# exit too. The ring holds every record, so nothing can be lapped: the
# counts must match exactly.
STREAM_ARENA="$WORK/stream.arena"
STREAM_SEGS="$WORK/stream-segs"
STREAM_METRICS="$WORK/stream.prom"
"$BTRACED" --arena "$STREAM_ARENA" --create --out "$STREAM_SEGS" \
    --blocks 512 --active 64 --block-bytes 4096 --cores 4 \
    --interval-ms 2 --duration 3 --close-active 0 \
    --metrics-out "$STREAM_METRICS" 2>/dev/null &
STREAM_PID=$!
STREAM_WRITTEN=0
for _ in $(seq 1 100); do
    if "$PRODUCER" --arena "$STREAM_ARENA" --events 1 --core 3 \
        > "$WORK/s0.out" 2>/dev/null; then
        STREAM_WRITTEN=$(cat "$WORK/s0.out")
        break
    fi
    sleep 0.05
done
[ "$STREAM_WRITTEN" -eq 1 ] || fail "streaming daemon never created its arena"
"$PRODUCER" --arena "$STREAM_ARENA" --events "$EVENTS_PER_PRODUCER" \
    --core 1 --lease 8 > "$WORK/s1.out" &
S1=$!
"$PRODUCER" --arena "$STREAM_ARENA" --events "$EVENTS_PER_PRODUCER" \
    --core 2 --lease 8 > "$WORK/s2.out" &
S2=$!
wait "$S1" || fail "streaming producer 1 exited nonzero"
wait "$S2" || fail "streaming producer 2 exited nonzero"
STREAM_WRITTEN=$((STREAM_WRITTEN + $(cat "$WORK/s1.out") + $(cat "$WORK/s2.out")))
wait "$STREAM_PID" || fail "streaming btraced exited nonzero"
: > "$WORK/stream.csv"
for seg in "$STREAM_SEGS"/segment-*.btrace; do
    "$INSPECT" "$seg" --csv "$WORK/seg.csv" > /dev/null \
        || fail "cannot decode $seg"
    tail -n +2 "$WORK/seg.csv" >> "$WORK/stream.csv"
done
STREAM_ON_DISK=$(wc -l < "$WORK/stream.csv")
STREAM_DRAINED=$(metric btraced_entries_total "$STREAM_METRICS")
[ "$STREAM_ON_DISK" -eq "$STREAM_DRAINED" ] \
    || fail "streaming segments hold $STREAM_ON_DISK records, daemon counted $STREAM_DRAINED"
[ "$STREAM_DRAINED" -eq "$STREAM_WRITTEN" ] \
    || fail "streaming daemon drained $STREAM_DRAINED records, producers wrote $STREAM_WRITTEN"
# CSV columns: stamp,core,thread,... — one row per (writer, stamp).
DUPES=$(awk -F, '{ print $3 "," $1 }' "$WORK/stream.csv" | sort | uniq -d | wc -l)
[ "$DUPES" -eq 0 ] || fail "$DUPES (writer, stamp) pairs drained twice"
[ "$(metric btraced_unreadable_blocks_total "$STREAM_METRICS")" -eq 0 ] \
    || fail "streaming daemon gave up a block"

echo "PASS: multi-process smoke ($TOTAL entries across segments," \
     "$(metric btraced_reclaimed_leases_total) lease(s) reclaimed," \
     "$(grep -o '"producer":' "$WORK/stats.json" | wc -l) producer row(s)" \
     "reconciled)"

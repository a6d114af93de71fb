#!/usr/bin/env bash
# End-to-end control-plane smoke test (DESIGN.md §12): btraced creates
# a shared file arena with a control file at full sampling, a producer
# writes through leases, then the operator rewrites the control file
# to 1% sampling and the *same producer binary* — polling the arena
# control page at lease renewal — must shed ~99% of its events. The
# script asserts the whole loop end to end:
#
#   - at sample_rate = 1.0 the producer writes every event;
#   - after the control-file rewrite (picked up by mtime polling, no
#     SIGHUP needed) a second producer run writes a small fraction;
#   - the daemon's Prometheus dump reflects the change:
#     btrace_governor_sample_rate == 0.01 and the governor counters
#     are present;
#   - btrace_inspect --control decodes the arena's control page and
#     shows both published snapshot versions;
#   - a malformed control file maps to exit code 2 at startup and
#     leaves neither an arena file nor an output directory behind.
#
# Usage: scripts/control_smoke.sh [BUILD_DIR]   (default: build)

set -u

BUILD_DIR="${1:-build}"
BTRACED="$BUILD_DIR/tools/btraced"
PRODUCER="$BUILD_DIR/tools/btrace_producer"
INSPECT="$BUILD_DIR/tools/btrace_inspect"

for bin in "$BTRACED" "$PRODUCER" "$INSPECT"; do
    if [ ! -x "$bin" ]; then
        echo "missing tool: $bin (build the 'btraced', 'btrace_producer'" \
             "and 'btrace_inspect' targets first)" >&2
        exit 1
    fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
ARENA="$WORK/ring.arena"
SEGS="$WORK/segs"
METRICS="$WORK/metrics.prom"
CONTROL="$WORK/control.conf"
EVENTS=20000

fail() { echo "FAIL: $*" >&2; exit 1; }

# Metric helper: value of a metric in the Prom dump (0 if absent).
metric() {
    awk -v name="$1" \
        '$1 ~ "^"name"([{]|$)" { print $2; found = 1 }
         END { if (!found) print 0 }' "$METRICS"
}

echo "== 1. malformed control file maps to exit code 2, creates nothing"
printf 'sample_rate = 7.0\n' > "$CONTROL"
"$BTRACED" --arena "$ARENA" --create --out "$SEGS" \
    --control-file "$CONTROL" --duration 1 2>/dev/null
[ $? -eq 2 ] || fail "out-of-range sample_rate should exit 2"
[ ! -e "$ARENA" ] || fail "malformed control file left the arena behind"
[ ! -e "$SEGS" ] || fail "malformed control file left $SEGS behind"

echo "== 2. daemon creates the arena at sample_rate = 1.0"
printf 'sample_rate = 1.0\n' > "$CONTROL"
"$BTRACED" --arena "$ARENA" --create --out "$SEGS" \
    --blocks 3072 --active 192 --block-bytes 4096 --cores 8 \
    --interval-ms 5 --sweep-every 4 --duration 12 --close-active 1 \
    --segment-bytes $((1 << 20)) --metrics-out "$METRICS" \
    --control-file "$CONTROL" --governor-interval-ms 200 \
    2> "$WORK/btraced.err" &
DAEMON_PID=$!

# Wait for the daemon's own announcement that the arena exists AND
# the startup control apply landed (v2: v1 is the create-time
# snapshot). Polling the arena file's size instead would race the
# creation — the file is at full size before the header is stamped.
for _ in $(seq 1 200); do
    grep -q "control v2" "$WORK/btraced.err" 2>/dev/null && break
    sleep 0.05
done
grep -q "control v2" "$WORK/btraced.err" \
    || fail "daemon never applied the startup control file"

echo "== 3. producer at full sampling writes every event"
"$PRODUCER" --arena "$ARENA" --events "$EVENTS" --core 1 \
    > "$WORK/p1.out" || fail "producer 1 exited nonzero"
[ "$(cat "$WORK/p1.out")" = "$EVENTS" ] \
    || fail "full-rate producer wrote $(cat "$WORK/p1.out")/$EVENTS"

echo "== 4. operator rewrites the control file to 1% sampling"
sleep 1.1  # ensure a coarse-mtime filesystem still sees the change
printf 'sample_rate = 0.01\n' > "$CONTROL"
# Wait for the daemon to publish the rewrite to the arena control
# page (50 ms poll cadence; give it a generous window). Versions:
# v1 is the owner's create-time snapshot, v2 the startup apply of
# sample_rate = 1.0, v3 this rewrite.
for _ in $(seq 1 100); do
    "$INSPECT" --control "$ARENA" 2>/dev/null \
        | grep -q "snapshots published  3" && break
    sleep 0.05
done
"$INSPECT" --control "$ARENA" | grep -q "snapshots published  3" \
    || fail "daemon never published the 1% snapshot"

echo "== 5. producer now sheds ~99% of its events"
"$PRODUCER" --arena "$ARENA" --events "$EVENTS" --core 2 \
    > "$WORK/p2.out" 2> "$WORK/p2.err" \
    || fail "producer 2 exited nonzero"
P2=$(cat "$WORK/p2.out")
# Expect ~1% of EVENTS (= 200); allow a wide margin, but insist the
# sampled run wrote far fewer than the full run.
[ "$P2" -lt $((EVENTS / 10)) ] \
    || fail "sampled producer still wrote $P2/$EVENTS events"
[ "$P2" -gt 0 ] || fail "sampled producer wrote nothing at all"
grep -q "suppressed" "$WORK/p2.err" \
    || fail "producer never reported suppression stats"

wait "$DAEMON_PID" || fail "btraced exited nonzero"

echo "== 6. governor metrics reflect the applied control"
[ -s "$METRICS" ] || fail "no metrics dump"
RATE=$(metric btrace_governor_sample_rate)
case "$RATE" in
    0.01*) : ;;
    *) fail "btrace_governor_sample_rate is '$RATE', expected 0.01" ;;
esac
grep -q "^btrace_governor_decisions_total" "$METRICS" \
    || fail "governor decision counter missing from dump"
grep -q "^btrace_governor_ring_blocks" "$METRICS" \
    || fail "governor ring gauge missing from dump"

echo "== 7. the arena control page records the history"
"$INSPECT" --control "$ARENA" > "$WORK/control.out" \
    || fail "inspect --control failed"
grep -q "snapshot v2" "$WORK/control.out" \
    || fail "snapshot v2 (startup apply) missing from control page"
grep -q "snapshot v3  (active)" "$WORK/control.out" \
    || fail "snapshot v3 (the rewrite) is not the active snapshot"
grep -q "sample rate      0.010000" "$WORK/control.out" \
    || fail "active snapshot does not show the 1% rate"

echo "PASS: control smoke (full run $EVENTS, sampled run $P2," \
     "governor rate $RATE)"

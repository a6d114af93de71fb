#!/bin/sh
# Regenerate the full reproduction: build, tests, every experiment.
# Outputs land in test_output.txt and bench_output.txt at the repo
# root (the files referenced by EXPERIMENTS.md), and the bench result
# files BENCH_main.json / BENCH_latency.json are pinned to the repo
# root — not left to whatever working directory a bench happens to
# inherit.
#
# Any --obs-* argument (e.g. --obs-interval=0.5 --obs-json=obs.jsonl)
# is forwarded to every bench binary, so one invocation produces the
# observability stream alongside the results; the stream is then
# schema-checked. --quick is forwarded too (CI-sized runs). A bench
# exiting nonzero — or a missing BENCH_*.json — fails the script:
# loudly, at the end, after every bench has had its chance to run.
set -eu
cd "$(dirname "$0")/.."
ROOT=$(pwd)

OBS_FLAGS=
OBS_JSON=
for arg in "$@"; do
    case "$arg" in
        --obs-json=*)
            OBS_JSON="${arg#--obs-json=}"
            OBS_FLAGS="$OBS_FLAGS $arg"
            ;;
        --obs-*)
            OBS_FLAGS="$OBS_FLAGS $arg"
            ;;
        --quick)
            OBS_FLAGS="$OBS_FLAGS $arg"
            ;;
        *)
            echo "unknown argument: $arg (only --obs-* and --quick" \
                 "are accepted)" >&2
            exit 2
            ;;
    esac
done

cmake -B build -G Ninja
cmake --build build

# Plain POSIX sh has no pipefail: the tee would swallow ctest's exit
# status, so ask ctest itself which tests failed.
ctest --test-dir build 2>&1 | tee test_output.txt
if [ -s build/Testing/Temporary/LastTestsFailed.log ]; then
    echo "FAILED: ctest ($(wc -l < build/Testing/Temporary/LastTestsFailed.log) tests)" >&2
    exit 1
fi

# Fresh outputs per invocation; the benches append to them in turn.
: > bench_output.txt
[ -n "$OBS_JSON" ] && : > "$OBS_JSON"

failures=
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    # Pin each bench's result file to the repo root explicitly. The
    # benches default to writing into their *working directory*, so a
    # run from anywhere else (CI step, build dir, IDE) silently
    # deposits the JSON where nothing reads it.
    OUT_FLAGS=
    case "$(basename "$b")" in
        micro_latency)
            OUT_FLAGS="--benchmark_out=$ROOT/BENCH_latency.json"
            OUT_FLAGS="$OUT_FLAGS --benchmark_out_format=json"
            ;;
    esac
    echo "### $b $OBS_FLAGS $OUT_FLAGS" | tee -a bench_output.txt
    # Run to a temp file first: a tee pipeline would swallow the exit
    # status under plain POSIX sh.
    status=0
    # shellcheck disable=SC2086  # flag lists are intentionally split
    "$b" $OBS_FLAGS $OUT_FLAGS > "$tmp" 2>&1 || status=$?
    tee -a bench_output.txt < "$tmp"
    if [ "$status" -ne 0 ]; then
        echo "FAILED: $b exited $status" | tee -a bench_output.txt >&2
        failures="$failures $(basename "$b")"
    fi
    echo | tee -a bench_output.txt
done

if [ -n "$OBS_JSON" ] && [ -s "$OBS_JSON" ]; then
    python3 scripts/check_obs_schema.py "$OBS_JSON" ||
        failures="$failures obs-schema"
fi

# The pipeline-observability smoke (DESIGN.md §13): daemon + producer
# processes, then btrace_stats reconciled exactly against the daemon's
# drain counters and schema-checked. It exercises the tools the
# benches above do not.
echo "### scripts/multiproc_smoke.sh build" | tee -a bench_output.txt
status=0
scripts/multiproc_smoke.sh build > "$tmp" 2>&1 || status=$?
tee -a bench_output.txt < "$tmp"
if [ "$status" -ne 0 ]; then
    echo "FAILED: multiproc_smoke exited $status" \
        | tee -a bench_output.txt >&2
    failures="$failures multiproc-smoke"
fi

# Verify the bench result files landed at the repo root (the paths
# CI uploads and EXPERIMENTS.md references). micro_latency was pinned
# there explicitly above; table2_main writes BENCH_main.json into the
# working directory, which this script pinned to the root with the cd
# at the top. A stray copy in build/ (from a bench run by hand) is
# swept up as a fallback. A missing artifact fails the run — this is
# exactly the silent publication gap this check exists to catch.
for j in BENCH_main.json BENCH_latency.json; do
    if [ ! -s "$j" ] && [ -s "build/$j" ]; then
        cp "build/$j" "$j"
    fi
    if [ -s "$j" ]; then
        echo "bench results: $j"
    else
        echo "FAILED: $j was not produced" >&2
        failures="$failures $j"
    fi
done

if [ -n "$failures" ]; then
    echo "FAILED:$failures" >&2
    exit 1
fi
echo "All benches completed."

#!/usr/bin/env bash
# Regenerate tests/data/golden_suite_all.json, the committed full-matrix
# results the `golden` ctest label pins (tests/golden_check.py).
#
# Usage: scripts/regen_golden.sh "<reason>" [build-dir]
#
# The golden is the `bench_sweep --suite all --json` report. It is
# rewritten only when every job finishes correct. Log the reason in
# CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
REASON="${1:-}"
BUILD="${2:-build}"
if [ -z "$REASON" ]; then
    echo "usage: scripts/regen_golden.sh \"<reason>\" [build-dir]" >&2
    exit 2
fi
BENCH="$BUILD/bench/bench_sweep"
if [ ! -x "$BENCH" ]; then
    echo "error: $BENCH not found; build first (cmake --build $BUILD)" >&2
    exit 2
fi

# Results must not depend on the caller's environment.
for v in $(env | sed -n 's/^\(ISRF_[A-Za-z0-9_]*\)=.*/\1/p'); do
    unset "$v"
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
"$BENCH" --suite all --jobs 4 --quiet --json "$TMP/sweep.json" \
    > "$TMP/sweep.log" || {
    cat "$TMP/sweep.log" >&2
    echo "error: the sweep failed; golden left unchanged" >&2
    exit 1
}
cp "$TMP/sweep.json" tests/data/golden_suite_all.json
echo "regenerated tests/data/golden_suite_all.json"
echo "log it in CHANGES.md: golden regenerated, reason: $REASON"

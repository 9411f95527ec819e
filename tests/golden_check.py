#!/usr/bin/env python3
"""Check bench_sweep's full-matrix results against the committed golden.

    python3 tests/golden_check.py --bench build/bench/bench_sweep \
        --golden tests/data/golden_suite_all.json

Runs `bench_sweep --suite all --jobs 4 --json` with every ISRF_*
variable removed, and requires the output to be byte-identical to the
golden. On a mismatch it names the first job and
field that diverge. Regenerate the golden only with
scripts/regen_golden.sh "<reason>".
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def first_divergence(golden, got, path=""):
    """Return (path, golden value, got value) of the first difference."""
    if isinstance(golden, dict) and isinstance(got, dict):
        for key in golden:
            if key not in got:
                return (f"{path}{key}", golden[key], "<missing>")
            d = first_divergence(golden[key], got[key], f"{path}{key}.")
            if d:
                return d
        for key in got:
            if key not in golden:
                return (f"{path}{key}", "<missing>", got[key])
        return None
    if isinstance(golden, list) and isinstance(got, list):
        for i, (g, o) in enumerate(zip(golden, got)):
            d = first_divergence(g, o, f"{path}{i}.")
            if d:
                return d
        if len(golden) != len(got):
            return (f"{path}length", len(golden), len(got))
        return None
    if golden != got or type(golden) is not type(got):
        return (path.rstrip("."), golden, got)
    return None


def describe(golden_text, got_text):
    try:
        golden = json.loads(golden_text)["results"]
        got = json.loads(got_text)["results"]
    except (ValueError, KeyError) as e:
        return f"output is not a sweep results report: {e}"
    for job in golden:
        if job not in got:
            return f"job {job}: missing from the output"
        d = first_divergence(golden[job], got[job])
        if d:
            field, want, have = d
            return f"job {job}, field {field}: golden {want!r}, got {have!r}"
    for job in got:
        if job not in golden:
            return f"job {job}: not in the golden"
    return "same results, different bytes (key order or number format)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True, help="bench_sweep binary")
    ap.add_argument("--golden", required=True)
    args = ap.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("ISRF_")}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.json")
        proc = subprocess.run(
            [args.bench, "--suite", "all", "--jobs", "4",
             "--quiet", "--json", out],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        if not os.path.exists(out):
            print(proc.stdout)
            print(f"golden: bench_sweep wrote no results "
                  f"(exit {proc.returncode})")
            return 1
        with open(out) as f:
            got = f.read()
    with open(args.golden) as f:
        golden = f.read()
    if got == golden:
        print(f"golden: {args.golden} byte-identical")
        return 0
    print(f"golden: results drifted from {args.golden}")
    print(f"golden: {describe(golden, got)}")
    print("If the change is intended, regenerate with "
          "scripts/regen_golden.sh \"<reason>\" and log the reason in "
          "CHANGES.md.")
    return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Host-speed benchmark of the isrf simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the workload's job list from
perfbench/workloads.json through the isrf_perfbench binary.

--trace 0 prints the end-to-end metrics (wall_s, sim_cycles_per_s,
peak_rss_mb, setup_s); --trace 1 prints the per-layer metrics and
writes <build>/trace/NAME.trace.json (Chrome trace) and
<build>/trace/NAME.layers.json. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
--workload all runs every workload in turn, tabulates the metrics on
standard error and prefixes each metric name with its workload.

setup_s is the median, over SETUP_PROBES fresh processes plus the
measured one, of the time from the start of main() to the first job
dispatch. A probe process runs the same prelude, then a batch whose
jobs return at once.

At the golden seed every job's resultJson is checked against
perfbench/golden.tsv. To regenerate it (log the reason in CHANGES.md):

    python3 perfbench/run.py --regen-golden "REASON"
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = os.path.join(BENCH_DIR, "workloads.json")
GOLDEN = os.path.join(BENCH_DIR, "golden.tsv")
SETUP_PROBES = 20
CHILD_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(f"error: {msg}")
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build incrementally; cmake output to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "isrf_perfbench")


def run_child(cmd):
    """Run the binary; return its last stdout line parsed as JSON."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"isrf_perfbench exceeded {CHILD_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"isrf_perfbench exited {p.returncode}")
    return json.loads(lines[-1])


def job_args(spec):
    args = []
    for workload, machines in spec["jobs"]:
        for machine in machines:
            args += ["--job", f"{workload}@{machine}"]
    return args


def nproc():
    return len(os.sched_getaffinity(0))


def run_workload(binary, name, spec, a):
    """Run one workload's jobs; return the binary's result with setup_s."""
    threads = a.threads
    if threads is None:
        threads = min(spec["threads"], nproc())
        if threads < spec["threads"]:
            log(f"only {nproc()} CPUs: running {threads} threads, "
                f"not {spec['threads']}")
    cmd = [binary, *job_args(spec), "--threads", str(threads),
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--golden", GOLDEN]
    if a.trace:
        trace_dir = os.path.join(os.path.dirname(build_dir()), "trace")
        os.makedirs(trace_dir, exist_ok=True)
        return run_child(cmd + ["--trace-out", os.path.join(trace_dir, name)])
    samples = []
    for _ in range(SETUP_PROBES):
        samples.append(run_child(cmd + ["--probe"])["setup_sample_s"])
    result = run_child(cmd)
    samples.append(result["setup_sample_s"])
    result["metrics"]["setup_s"] = {
        "value": statistics.median(samples), "unit": "s"}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="a workload of workloads.json, "
                    "or all to run each in turn")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--threads", type=int,
                    help="worker threads (default: the workload's, "
                         "capped at nproc)")
    ap.add_argument("--regen-golden", metavar="REASON",
                    help="rewrite golden.tsv from every workload's jobs "
                         "at the default seed")
    a = ap.parse_args()

    with open(WORKLOADS) as f:
        config = json.load(f)
    workloads = config["workloads"]

    if a.regen_golden:
        binary = build()
        jobs = []
        for spec in workloads.values():
            jobs += job_args(spec)
        threads = max(spec["threads"] for spec in workloads.values())
        cmd = [binary, *jobs, "--threads", str(min(threads, nproc())),
               "--seed", str(config["default_seed"]),
               "--write-golden", GOLDEN, "--reason", a.regen_golden]
        sys.exit(subprocess.run(cmd).returncode)

    if a.workload is None or a.seed is None or a.seconds is None \
            or a.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if a.workload != "all" and a.workload not in workloads:
        ap.error(f"unknown workload '{a.workload}'; known: "
                 f"{', '.join(workloads)}, all")
    names = list(workloads) if a.workload == "all" else [a.workload]

    binary = build()
    results = {n: run_workload(binary, n, workloads[n], a) for n in names}
    metrics = {}
    for name, r in results.items():
        log(f"{name}: {r['jobs_run']} jobs in {r['batches']} batches, "
            f"{r['jobs_failed']} failed")
        for metric, m in r["metrics"].items():
            log(f"  {name:15} {metric:26} {m['value']:>14.6g} {m['unit']}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = m
    print(json.dumps({
        "correct": all(r["correct"] and r["jobs_failed"] == 0
                       for r in results.values()),
        "attempted": sum(r["jobs_run"] for r in results.values()),
        "failed": sum(r["jobs_failed"] for r in results.values()),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

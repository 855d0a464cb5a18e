#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
from src/) into .bench_build; later calls only rebuild what changed.  The
benchmark binary writes its record to its own file; everything the library
prints goes to stderr here, so the last line of stdout is always the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (a layer a workload does not exercise reads
0).  A human-readable table with units and sample counts, and the host and
build fingerprint, go to stderr.  Exit status is 0 only for a correct run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mem_int8", "serve_xproc_file_fp32", "train_sgc_storage")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "perfbench", "replica_server_cli"])
    for cmd in steps:
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            log("run.py: build step failed: " + " ".join(cmd))
            sys.exit(2)


def run_binary(cmd):
    """Runs the benchmark in its own process group so that a timeout also
    stops the replica processes it spawned."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark timed out")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1
    finally:
        try:  # replicas left behind by a crashed benchmark
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    end_to_end, per_layer = metric_lists()
    bdir = build_dir()
    build(bdir)

    run_dir = os.path.join(bdir, "run")
    os.makedirs(run_dir, exist_ok=True)
    record_path = os.path.join(run_dir, args.workload + ".record.json")
    spans_path = os.path.join(run_dir, args.workload + ".spans.csv")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", record_path, "--dir", os.path.relpath(run_dir, ROOT)]
    if args.trace:
        cmd += ["--spans", spans_path]
    rc = run_binary(cmd)
    if not os.path.exists(record_path):
        log("run.py: no record (exit %d)" % rc)
        sys.exit(1)
    with open(record_path) as f:
        rec = json.load(f)

    wanted = per_layer if args.trace else end_to_end
    measured = rec["metrics"]
    metrics, lines = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                log("run.py: workload did not report " + m["name"])
                sys.exit(1)
            got = {"value": 0, "unit": m["unit"], "samples": 0}
        if got["unit"] != m["unit"]:
            log("run.py: %s reported in %s, expected %s"
                % (m["name"], got["unit"], m["unit"]))
            sys.exit(1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        lines.append("  %-26s %16.6g %-10s samples=%d"
                     % (m["name"], got["value"], m["unit"], got["samples"]))
    log("%s seed=%d trace=%d: correct=%s attempted=%d failed=%d"
        % (args.workload, args.seed, args.trace, rec["correct"],
           rec["attempted"], rec["failed"]))
    log("  fingerprint: " + json.dumps(rec["info"], sort_keys=True))
    if rec["failed"]:
        log("  failures: " + json.dumps(rec["failed_by_phase_cause"]))
    for problem in rec["problems"]:
        log("  INCORRECT: " + problem)
    log("\n".join(lines))
    if args.trace:
        log("  spans: " + os.path.relpath(spans_path, ROOT))

    print(json.dumps({"correct": bool(rec["correct"]) and rc == 0,
                      "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": metrics}))
    sys.exit(0 if rec["correct"] and rc == 0 else 1)


if __name__ == "__main__":
    main()

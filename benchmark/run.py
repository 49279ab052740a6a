#!/usr/bin/env python3
"""Build and run one benchmark run, from the root of a checkout.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Builds example_plan_server and the cmsbench harness with CMake (into
$CARGO_TARGET_DIR, default .bench_build), runs cmsbench in a fresh work
directory under .bench_run/, and prints its one-line JSON result as the
last line of standard output. The result is also saved under
.bench_run/results/ for benchmark/compare.py, and a traced run's spans
under .bench_run/spans/. Exits nonzero, printing no result, when the
build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then bring cmsbench and the server up to date."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "cmsbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def expected_digest(workload, seed):
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    if seed != expected["default_seed"]:
        return None
    return expected["outputs_digest"].get(workload)


def run_cmsbench(cmd):
    """Run cmsbench in its own process group, so a timeout or a signal to
    this script stops the plan_server children too."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"cmsbench did not finish within {RUN_TIMEOUT_S} s")
        return None, 1
    return out, proc.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return 1
    bin_dir = os.path.abspath(build_dir)

    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    work = os.path.join(".bench_run", "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    for d in ("results", "spans"):
        os.makedirs(os.path.join(".bench_run", d), exist_ok=True)

    cmd = [os.path.join(bin_dir, "cmsbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--server-bin", os.path.join(bin_dir, "cms", "example_plan_server"),
           "--work-dir", work]
    if args.trace:
        cmd += ["--trace", "--out",
                os.path.join(".bench_run", "spans", tag + ".json")]
    digest = expected_digest(args.workload, args.seed)
    if digest:
        cmd += ["--expect-digest", digest]

    out, code = run_cmsbench(cmd)
    shutil.rmtree(work, ignore_errors=True)
    lines = (out or "").strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == RESULT_KEYS
    except (IndexError, ValueError, AssertionError):
        log(f"cmsbench printed no result (exit code {code})")
        return code or 1
    with open(os.path.join(".bench_run", "results", tag + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "result": result}, f)
        f.write("\n")
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

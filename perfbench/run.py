#!/usr/bin/env python3
"""Builds and runs the RL4OASD end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload live|backfill|gps --seed N \
        --seconds S --trace 0|1

The first call builds perfbench/ (the repository's layer libraries plus the
oasd_perfbench program) into .bench_build/. Each call runs one measurement and
prints its JSON result as the last line of standard output: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with --trace 1.

Exit status: 0 when every output check passed; 1 with a correct=false result
line when an output check failed; non-zero without a result line when the
build or the run could not complete.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "oasd_perfbench")
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 1  # held-out seed for claims: 5003 (README.md)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds oasd_perfbench; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = any(os.path.exists(os.path.join(CMAKE_DIR, f))
                         for f in ("build.ninja", "Makefile"))
        steps = []
        if not configured:
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", CMAKE_DIR, "--target",
                      "oasd_perfbench", "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False).returncode != 0:
                log("build failed: " + " ".join(cmd))
                return False
    return os.path.exists(BINARY)


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_f1_record(args, f1):
    """f1 is deterministic: every run of a (build, workload, seed, seconds)
    must agree (`live` scores the trips its schedule completes, so the run
    length is part of the input).

    Records the first value seen per key under .bench_build/ and compares
    later runs against it. The key includes a hash of the oasd_perfbench
    binary, so a rebuilt program starts a fresh record.
    """
    with open(BINARY, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    key = f"{build_id}/{args.workload}/{args.seed}/{args.seconds:g}"
    path = os.path.join(BUILD, "f1_record.json")
    with open(os.path.join(BUILD, "f1_record.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        record = {}
        if os.path.exists(path):
            with open(path) as f:
                record = json.load(f)
        if key in record:
            return record[key] == f1
        record[key] = f1
        with open(path + ".tmp", "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["live", "backfill", "gps"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"oasd_perfbench exited {proc.returncode} without a result line")
        return 4

    correct = bool(result.get("correct")) and proc.returncode == 0
    expected = expected_metrics(args.trace)
    reported = {(k, v["unit"]) for k, v in result["metrics"].items()}
    if expected is not None and reported != expected:
        log(f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(expected - reported)}, unexpected "
            f"{sorted(reported - expected)}")
        correct = False
    if not args.trace and "f1" in result["metrics"]:
        if not check_f1_record(args, result["metrics"]["f1"]["value"]):
            log("f1 differs from an earlier run of this build and input")
            correct = False
    result["correct"] = correct
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repeated-run steadiness study of the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/steadiness.py [--out perfbench/STEADINESS.md]

Each of two sets runs every workload of BENCHMARK.json ten times through
perfbench/run.py, each run with its own seed (set s uses seeds
100(s-1)+1 ... 100(s-1)+10). For every end-to-end metric it reports the median
and quartiles of each set (statistics.quantiles(n=4)), the spread
(Q3 - Q1) / median against the metric's bound from BENCHMARK.json, and how far
the second set's median moved from the first set's in the metric's worse
direction. It also checks that no end-to-end metric echoes a harness input
(the offered rate of `live`). Writes a Markdown record with every raw value;
exits 1 when a spread or a shift exceeds its bound.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Harness inputs an end-to-end metric must never reproduce (live's offered
# rate, in points/s; see src/live.cc).
HARNESS_INPUTS = {"live": [50000.0]}
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run failed ({result})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_shift(first, later, better):
    change = (later - first) / first
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "STEADINESS.md"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]

    raw = {w: [] for w in workloads}  # workload -> [set -> [run metrics]]
    for s in range(SETS):
        for w in workloads:
            runs = []
            for i in range(RUNS):
                seed = 100 * s + i + 1
                runs.append(run_once(w, seed, seconds))
                print(f"set {s + 1} {w} seed {seed}: " +
                      " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()),
                      flush=True)
            raw[w].append(runs)

    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    out = [
        "# Steadiness record of the end-to-end benchmark",
        "",
        f"Generated by `python3 perfbench/steadiness.py` on "
        f"{datetime.date.today().isoformat()}: {SETS} sets x "
        f"{RUNS} runs per workload, {seconds} s per run, on "
        f"{os.cpu_count()} vCPUs ({cpu}, {platform.system()} VM shared with "
        f"other tenants). Set s uses seeds 100(s-1)+1 ... "
        f"100(s-1)+{RUNS}; spreads are (Q3 - Q1) / median with "
        f"statistics.quantiles(n=4); "
        f"\"shift\" is how much worse a later set's median is than set 1's "
        f"(negative: better).",
        "",
    ]
    failures = []
    for w in workloads:
        out += [f"## {w}", "",
                "| metric | bound | " +
                " | ".join(f"set {s + 1} median [Q1, Q3] (spread)"
                           for s in range(SETS)) +
                " | shift |",
                "|---|---|" + "---|" * SETS + "---|"]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, medians = [], []
            for s in range(SETS):
                q1, med, q3 = summary([r[name] for r in raw[w][s]])
                spread = (q3 - q1) / med
                medians.append(med)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] ({spread:.3f})")
                if spread > bound:
                    failures.append(
                        f"{w}/{name} set {s + 1} spread {spread:.3f}")
            shifts = [worse_shift(medians[0], md, m["better"])
                      for md in medians[1:]]
            for shift in shifts:
                if shift > bound:
                    failures.append(f"{w}/{name} shift {shift:.3f}")
            out.append(f"| {name} | {bound} | " + " | ".join(cells) + " | " +
                       ", ".join(f"{x:+.3f}" for x in shifts) + " |")
            for value in HARNESS_INPUTS.get(w, []):
                if any(abs(r[name] - value) / value < 0.02
                       for runs in raw[w] for r in runs):
                    failures.append(f"{w}/{name} echoes harness input {value}")
        out.append("")
    out += ["## Verdict", ""]
    out += ([f"- FAIL: {f}" for f in failures] if failures else
            ["- Every spread is within its bound, no "
             "later set's median is worse than set 1's by more than the "
             "bound, and no end-to-end metric comes within 2% of a harness "
             "input."])
    out += ["", "## Raw values", "", "```json",
            json.dumps(raw, indent=None, sort_keys=True), "```", ""]
    with open(args.out, "w") as f:
        f.write("\n".join(out))
    print("\n".join(out[:-4]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

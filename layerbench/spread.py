#!/usr/bin/env python3
"""Run the layered benchmark and report each metric's spread.

Usage, from the repository root:

    python3 layerbench/spread.py                      # every workload, once
    python3 layerbench/spread.py --runs 10            # ten seeds each
    python3 layerbench/spread.py --trace 1            # per-layer metrics
    python3 layerbench/spread.py --workloads vc1-nr24,rewrite-mix --runs 5

The command, run length, workloads and metric names come from
BENCHMARK.json. Run k uses seed first_seed + k. For every workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and IQR / median; with --runs 1 that is just the value with its unit.
Exits non-zero if any run fails, is not correct, or misses a metric, or
if a count differs between runs (counts do not depend on the seed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: result not correct")
    return context, result


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {n: [] for n in names}
        units = {}
        for k in range(args.runs):
            context, result = run_once(spec, workload, args.first_seed + k, args.seconds, args.trace)
            missing = set(names) - set(result["metrics"])
            if missing:
                raise SystemExit(f"{workload}: missing metrics {sorted(missing)}")
            for n in names:
                values[n].append(result["metrics"][n]["value"])
                units[n] = result["metrics"][n]["unit"]
            walls = " ".join(f"{w:.2f}" for w in context["pass_wall_s"])
            cpus = " ".join(f"{c:.2f}" for c in context["pass_cpu_s"])
            print(f"# {workload} seed {args.first_seed + k}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, pass wall [{walls}] cpu [{cpus}] s, "
                  f"reference {context['reference_s']:.4f} s, "
                  f"nproc {context['nproc']}, rev {context['git_rev'][:12]}", flush=True)
        print(f"{workload}  ({args.runs} run(s), config {json.dumps(context['config'])})")
        # Counts are deterministic: every seed must give the same ones.
        drifted = [n for n in names if units[n] in ("count", "bytes") and len(set(values[n])) > 1]
        if drifted:
            raise SystemExit(f"{workload}: counts differ between runs: {drifted}")
        print(f"  {'metric':<28} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
        for n in names:
            med, q1, q3, spread = summary(values[n])
            bound = bounds.get(n)
            print(f"  {n:<28} {units[n]:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {'' if bound is None else bound:>6}", flush=True)


if __name__ == "__main__":
    main()

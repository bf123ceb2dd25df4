#!/usr/bin/env python3
"""Steadiness check for the Cogra benchmark.

    python3 perfbench/steady.py [--runs 10] [--seed 1000]

Run it from the root of a checkout. It runs every workload of
BENCHMARK.json `--runs` times, in alternating order (a, b, c, a, b, c, ...),
with seeds `--seed`, `--seed`+1, ... (run i of every workload uses the same
seed), each for the benchmark's `run_seconds`. It then prints, per workload
and metric, the median, the first and third quartiles (as Python's
statistics.quantiles(values, n=4) gives them) and their distance as a share
of the median, next to the metric's bound, and the share of failed
operations. The bounds in BENCHMARK.json are set from its output: each spread
should stay below a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = run_once(w, args.seed + i, bench["run_seconds"])
            results[w].append(r)
            print(f"run {i + 1}/{args.runs} {w} seed {args.seed + i}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)

    metrics = bench["end_to_end"]
    print(f"\n| workload | metric | unit | runs | median | q1 | q3 | (q3-q1)/median | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results[w]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {w} | {m['name']} | {m['unit']} | {len(vals)} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.4f} | {m['bound']} |")
    for w in workloads:
        att = sum(r["attempted"] for r in results[w])
        fail = sum(r["failed"] for r in results[w])
        ok = all(r["correct"] for r in results[w])
        print(f"{w}: correct in every run={ok}, failed {fail} of {att} operations")


if __name__ == "__main__":
    main()

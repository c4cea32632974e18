#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py [--workloads a,b] [--seeds 0-9] [--trace 0|1]
                            [--seconds S] [--out FILE.json]

For every workload it runs ``bench/run.py`` once per seed, one run at a
time, and prints per metric the median, the quartiles and the spread
(quartile distance over the median, as statistics.quantiles(n=4) gives
them). With --out, every run's result and the summary are written to
FILE.json with the environment the runs reported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(workloads.FULL))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    seconds = args.seconds or str(manifest["run_seconds"])
    report = {"environment": None}
    for name in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                manifest["command"] + ["--workload", name, "--seed", str(seed),
                                       "--seconds", seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("environment "):
                    report["environment"] = json.loads(line.split(" ", 1)[1])
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed_frac={result['failed'] / result['attempted']:.6g} "
                  f"({result['failed']}/{result['attempted']} episodes)", flush=True)
        summary = {
            metric: summarize([r["metrics"][metric]["value"] for r in runs])
            for metric in runs[0]["metrics"]
        }
        for metric, s in summary.items():
            print(f"  {metric:44s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}", flush=True)
        report[name] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

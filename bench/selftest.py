#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about two minutes).

Usage (from the repository root): python3 bench/selftest.py

For every workload it records a tiny reference for seeds 0 and 1, then
checks that:

- BENCHMARK.json names exactly the metrics and workloads metrics.py and
  workloads.py define;
- an untraced and a traced run print every end-to-end or per-layer
  metric with its unit, and pass the output check;
- seed 1, the held-out seed for later claims, runs end to end;
- a perturbed reference (one trigger event moved, or one sampled state
  shifted) makes the output check fail;
- in a directory holding only BENCHMARK.json and bench/, the command
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def check_manifest() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)

    def rows(key):
        return [(m["name"], m["unit"], m["better"]) for m in manifest[key]]

    expect(rows("end_to_end") == list(metrics.END_TO_END), "BENCHMARK.json end_to_end")
    expect(rows("per_layer") == list(metrics.PER_LAYER), "BENCHMARK.json per_layer")
    expect(
        [w["name"] for w in manifest["workloads"]] == list(workloads.FULL),
        "BENCHMARK.json workloads",
    )


def check_metrics(result: dict | None, expected, what: str) -> None:
    ok = (
        result is not None
        and result["correct"]
        and result["failed"] == 0
        and result["attempted"] >= 1
        and {k: v["unit"] for k, v in result["metrics"].items()}
        == {name: unit for name, unit, _ in expected}
        and all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    )
    expect(ok, what)


def perturb(ref_path: str, out_path: str) -> None:
    """Move the first trigger event one step later, else shift one state."""
    with open(ref_path, encoding="utf-8") as fh:
        data = json.load(fh)
    episodes = [data["episodes"][key] for key in data["seeds"]["0"]["episodes"]]
    for episode in episodes:
        if episode["events"]:
            episode["events"][0][1] += 1
            break
    else:
        episodes[0]["x"][-1][0] += 1e-3
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def check_empty_checkout(tmp: str) -> None:
    bare = os.path.join(tmp, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study-headline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    expect(proc.returncode != 0 and not printed_result,
           "without src/ the command fails without a result")


def main() -> int:
    check_manifest()
    work = os.path.join(ROOT, ".bench_out")
    os.makedirs(work, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=work)
    try:
        for name in workloads.FULL:
            ref = os.path.join(tmp, f"{name}.json")
            for seed in ("0", "1"):
                proc = bench("--workload", name, "--seed", seed, "--seconds", "1",
                             "--size", "tiny", "--record-reference", ref)
                expect(proc.returncode == 0, f"{name}: record tiny reference, seed {seed}")
            tiny = ("--size", "tiny", "--seconds", "0.1", "--reference", ref)
            check_metrics(result_of(bench("--workload", name, "--seed", "0", "--trace", "0", *tiny)),
                          metrics.END_TO_END, f"{name}: end-to-end metrics, seed 0")
            check_metrics(result_of(bench("--workload", name, "--seed", "0", "--trace", "1", *tiny)),
                          metrics.PER_LAYER, f"{name}: per-layer metrics, seed 0")
            check_metrics(result_of(bench("--workload", name, "--seed", "1", "--trace", "0", *tiny)),
                          metrics.END_TO_END, f"{name}: held-out seed 1 runs end to end")
            bad = os.path.join(tmp, f"{name}.perturbed.json")
            perturb(ref, bad)
            proc = bench("--workload", name, "--seed", "0", "--trace", "0", "--size", "tiny",
                         "--seconds", "0.1", "--reference", bad)
            got = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            expect(got is not None and not got["correct"] and got["failed"] >= 1,
                   f"{name}: perturbed reference is rejected")
        check_empty_checkout(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

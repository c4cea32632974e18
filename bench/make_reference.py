#!/usr/bin/env python3
"""Regenerate the stored references in bench/reference/.

Usage (from the repository root):

    python3 bench/make_reference.py [WORKLOAD ...]

Runs one full-size unit per reference seed of each named workload (all
four by default) and rewrites bench/reference/<workload>.json. Only do
this at a commit whose outputs are known good: the benchmark counts
every later deviation from these files as a failed episode.
"""

from __future__ import annotations

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import workloads  # noqa: E402


def main(names: list[str]) -> None:
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    for name in names or list(workloads.FULL):
        path = check.reference_path(name)
        if os.path.exists(path):
            os.unlink(path)
        for seed in workloads.REFERENCE_SEEDS:
            subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", "1", "--record-reference", path],
                cwd=os.path.dirname(BENCH_DIR),
                check=True,
            )


if __name__ == "__main__":
    main(sys.argv[1:])

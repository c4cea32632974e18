"""Time the work before the first control step, in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED SIZE

Prints the seconds from just before ``import gpconsensus`` to the end of
``prepare_run`` + ``init_state`` (offline GP builds included) for every
episode of one unit of the workload. The runner starts it several times
and reports the median as ``setup_s``; BLAS thread settings are
inherited from the runner's environment.
"""

from __future__ import annotations

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import workloads  # noqa: E402  (no package imports at module level)


def main(argv: list[str]) -> None:
    name, seed, size = argv[0], int(argv[1]), argv[2]
    workload = workloads.get(name, size)
    t0 = time.perf_counter()
    import gpconsensus.cli  # noqa: F401  (what the command imports)
    from gpconsensus.engine import init_state, prepare_run
    from gpconsensus.rng import SplitMix64

    for config in workloads.episode_configs(workload, seed):
        init_state(prepare_run(config), SplitMix64(config.seed))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])

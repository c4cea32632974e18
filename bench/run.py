#!/usr/bin/env python3
"""gpconsensus benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) through ``gpconsensus.cli.main``,
repeating complete units until S seconds are spent, checks every
episode against the stored reference, prints a metric table, and prints
as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced units and reports
the per-layer metrics plus the tracing overhead. Metric definitions are
in metrics.py and METRICS.md.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported; pool workers and the set-up
# probe inherit it. With 2 threads the batch Cholesky in
# GpModel.from_data changes bits of offline cases and its time is
# bimodal (see METRICS.md, known defects).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import array  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", help="reference file (default: bench/reference/)")
    parser.add_argument(
        "--record-reference",
        metavar="PATH",
        help="run one unit and add its outputs to PATH as the reference of this seed",
    )
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def measure_setup(name: str, seed: int, size: str) -> list[float]:
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, probe, name, str(seed), size],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


class Unit:
    """One complete workload: its wall time, episodes and check result."""

    def __init__(self, workload, seed, work_dir, trace):
        import instrument
        import workloads

        self.trace = trace
        self.out_dir = tempfile.mkdtemp(prefix="unit-", dir=work_dir)
        self.inst = instrument.Instrument(self.out_dir, trace=trace)
        self.calls = workloads.cli_calls(workload, seed, self.out_dir)
        self.codes: list[int] = []
        self.wall = float("nan")
        self.workers: list[dict] = []

    def run(self) -> None:
        import gpconsensus.cli as cli

        sink = io.StringIO()
        self.inst.install()
        try:
            with contextlib.redirect_stdout(sink):
                t0 = time.perf_counter()
                for argv in self.calls:
                    self.codes.append(cli.main(argv))
                self.wall = time.perf_counter() - t0
        except Exception:  # counted as failed episodes; the run goes on
            traceback.print_exc()
            self.codes.append(-1)
        finally:
            self.inst.uninstall()
        self.workers = self.inst.collect_workers()

    @property
    def episodes(self) -> list[dict]:
        eps = list(self.inst.episodes)
        for rec in self.workers:
            eps.extend(rec["episodes"])
        return eps

    @property
    def step_s(self) -> list[float]:
        samples = list(self.inst.step_s)
        for rec in self.workers:
            extra = array.array("d")
            extra.frombytes(rec["step_s"])
            samples.extend(extra)
        return samples

    def worker_rss_kb(self) -> int:
        peak: dict[int, int] = {}
        for rec in self.workers:
            peak[rec["pid"]] = max(peak.get(rec["pid"], 0), rec["maxrss_kb"])
        return sum(peak.values())

    def check(self, reference: dict) -> tuple[int, list[str], int, int]:
        import check

        failed, problems, same, n_csv = check.check_unit(reference, self.episodes, self.out_dir)
        if any(code != 0 for code in self.codes):
            problems.append(f"exit codes {self.codes}")
            failed = max(failed, len(reference["episodes"]))
        return failed, problems, same, n_csv

    def cleanup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def record_reference(args, workload, seed: int, work_dir: str) -> None:
    import check

    unit = Unit(workload, seed, work_dir, trace=False)
    unit.run()
    if any(code != 0 for code in unit.codes):
        raise SystemExit(f"reference run failed with exit codes {unit.codes}")
    check.add_reference(args.record_reference, args.workload, seed, unit.episodes, unit.out_dir)
    unit.cleanup()
    print(f"recorded seed {seed}: {len(unit.episodes)} episodes in {unit.wall:.3f} s")


def run_units(workload, seed, work_dir, seconds, trace, reference, report):
    """Alternate untraced (and, with trace, traced) units until the budget is spent.

    A unit starts only if a typical unit still fits in the budget; at
    least one unit of each kind always runs.
    """
    units = {False: [], True: []}
    kinds = (False, True) if trace else (False,)
    t_start = time.perf_counter()
    attempted = failed = csv_same = csv_total = 0
    while True:
        for kind in kinds:
            unit = Unit(workload, seed, work_dir, trace=kind)
            unit.run()
            n_failed, problems, same, n_csv = unit.check(reference)
            attempted += len(reference["episodes"])
            failed += n_failed
            csv_same += same
            csv_total += n_csv
            for msg in problems:
                print(f"check failed: {msg}", file=sys.stderr)
            report(unit)
            unit.cleanup()
            units[kind].append(unit.wall)
        elapsed = time.perf_counter() - t_start
        per_round = elapsed / len(units[False])
        if elapsed + per_round > seconds:
            break
    return units, attempted, failed, csv_same, csv_total


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "gpconsensus")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)

    import check
    import workloads

    workload = workloads.get(args.workload, args.size)
    seed = workloads.program_seed(args.seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        if args.record_reference:
            record_reference(args, workload, seed, work_dir)
            return 0
        ref_path = args.reference or check.reference_path(args.workload)
        reference = check.load_reference(ref_path, seed)
        return measure(args, workload, seed, work_dir, reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, workload, seed, work_dir, reference) -> int:
    import numpy as np

    import metrics
    import workloads

    setup = [] if args.trace else measure_setup(args.workload, seed, args.size)
    agent_steps = sum(
        c.n_agents * int(round(c.t_end / c.dt)) for c in workloads.episode_configs(workload, seed)
    )

    step_pcts: list = []  # (p50, p99) in us, one pair per untraced unit
    n_steps = [0]
    worker_rss = [0]
    layer_rows: list[dict] = []

    last_spans: dict = {}

    def report(unit):
        if unit.trace:
            chunks = [unit.inst.spans.take()] + [rec["spans"] for rec in unit.workers]
            last_spans.update(metrics.merge_spans(chunks))
            layer_rows.append(
                metrics.layer_metrics(
                    last_spans,
                    unit.episodes,
                    unit.inst.mc_summaries,
                    workload.jobs,
                    unit.inst.bytes_written,
                )
            )
        else:
            samples = np.array(unit.step_s) * 1e6
            n_steps[0] += samples.size
            step_pcts.append(np.percentile(samples, [50, 99]))
            worker_rss[0] = max(worker_rss[0], unit.worker_rss_kb())

    units, attempted, failed, csv_same, csv_total = run_units(
        workload, seed, work_dir, args.seconds, bool(args.trace), reference, report
    )
    walls = units[False]
    values: dict[str, float] = {}
    if args.trace:
        for name, _, _ in metrics.PER_LAYER:
            if not name.startswith("trace.overhead"):
                values[name] = statistics.fmean(row[name] for row in layer_rows)
        traced, untraced = statistics.median(units[True]), statistics.median(walls)
        values["trace.overhead_s"] = traced - untraced
        values["trace.overhead_frac"] = (traced - untraced) / untraced
    else:
        p50, p99 = np.median(np.array(step_pcts), axis=0)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + worker_rss[0]
        values.update(
            wall_s=statistics.median(walls),
            agent_steps_per_s=statistics.median(agent_steps / w for w in walls),
            setup_s=statistics.median(setup),
            step_us_p50=float(p50),
            step_us_p99=float(p99),
            peak_rss_mb=rss_kb / 1024.0,
        )

    if args.trace:
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}.npz")
        metrics.write_spans(spans_path, last_spans)
        print(f"spans of the last traced unit: {os.path.relpath(spans_path, ROOT)}")

    names = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    print(f"workload {args.workload} ({args.size}), seed {args.seed} -> program seed {seed}")
    print(f"environment {json.dumps(environment())}")
    print(
        f"units {len(walls)} untraced + {len(units[True])} traced; "
        f"walls_s {[round(w, 4) for w in walls]}; agent-steps per unit {agent_steps}"
    )
    if not args.trace:
        print(f"step samples {n_steps[0]}; per-unit p50/p99 us {np.round(step_pcts, 1).tolist()}; setup probes_s {[round(s, 4) for s in setup]}")
    for name, unit, _ in names:
        print(f"  {name:44s} {values[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':44s} {failed / attempted:>16.6g} ratio")
    print(f"csv bodies identical to reference: {csv_same}/{csv_total}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, BENCH_DIR)
    sys.exit(main())

"""CSV emission: reproducible formatting, meta headers, atomic writes.

Floats are written with repr(), the shortest decimal that round-trips,
so identical runs produce identical bytes and parsers recover the exact
binary values. Every file starts with a '#'-prefixed meta block naming
the probabilistic parameters, the derived bounds, the source revision,
and the config digest that produced it. Files are written to a temp
name in the target directory and renamed into place, so readers never
observe a partial file; the file gets the mode open() would give it.
"""

from __future__ import annotations

import csv
import functools
import io
import os
import subprocess
import tempfile

import numpy as np

from .engine import EpisodeSummary, McRunRecord, McSummary, Trajectory
from .gp import BoundContext


def fmt_float(value: float) -> str:
    """Shortest round-trip decimal form."""
    return repr(float(value))


def fmt_bool(value: bool) -> str:
    return "true" if value else "false"


@functools.cache
def git_describe() -> str:
    """Source revision of the working tree, or 'unknown' outside a checkout.

    Computed once per process: the code a process runs does not change
    after import, so every meta it writes names the same revision.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _atomic_write(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        # mkstemp makes the file owner-only; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _meta_block(meta: dict) -> str:
    lines = []
    for key, value in meta.items():
        if isinstance(value, bool):
            rendered = fmt_bool(value)
        elif isinstance(value, float):
            rendered = fmt_float(value)
        else:
            rendered = str(value)
        lines.append(f"# {key} = {rendered}")
    return "\n".join(lines) + "\n"


def bound_meta(bound: BoundContext, epsilon: float) -> dict:
    """The meta block's error-bound keys: the bound's inputs and what it derives."""
    return {
        "delta": bound.delta,
        "tau": bound.tau,
        "beta": bound.beta,
        "eta_bar": bound.eta_bar_lower,
        "epsilon": epsilon,
    }


def build_meta(summary: EpisodeSummary) -> dict:
    """Standard meta block for a single episode."""
    return {
        "case": summary.case_label,
        "seed": summary.seed,
        **bound_meta(summary.bound, summary.epsilon),
        "x_bar_star": summary.x_bar_star,
        "domain_ok": summary.domain_ok,
        "gamma_ok": summary.gamma_ok,
        "config": summary.config_digest,
        "source": git_describe(),
    }


def write_trajectory_csv(path, traj: Trajectory, meta: dict) -> None:
    """Columns t, x_i, xbar_i, u_i, rho_i, eta_i, trig_i, d_i, err."""
    n = traj.x.shape[1]
    buf = io.StringIO()
    buf.write(_meta_block(meta))
    writer = csv.writer(buf, lineterminator="\n")
    header = ["t"]
    for prefix in ("x", "xbar", "u", "rho", "eta", "trig", "d"):
        header.extend(f"{prefix}_{i + 1}" for i in range(n))
    header.append("err")
    writer.writerow(header)
    for r in range(traj.t.size):
        row = [fmt_float(traj.t[r])]
        for block in (traj.x, traj.x_bar, traj.u, traj.rho, traj.eta):
            row.extend(fmt_float(v) for v in block[r])
        row.extend(str(int(v)) for v in traj.fired[r])
        row.extend(str(int(v)) for v in traj.dataset_size[r])
        row.append(fmt_float(traj.err[r]))
        writer.writerow(row)
    _atomic_write(path, buf.getvalue())


def write_summary_csv(path, records: list, n_agents: int, meta: dict) -> None:
    """One row per episode: final error, trigger counts, sizes, flags.

    Records are EpisodeSummary or McRunRecord objects; a failed run's 2N
    per-agent cells are empty.
    """
    buf = io.StringIO()
    buf.write(_meta_block(meta))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["case", "run", "seed", "final_err"]
        + [f"trig_{i + 1}" for i in range(n_agents)]
        + [f"d_{i + 1}" for i in range(n_agents)]
        + ["epsilon", "domain_ok", "gamma_ok", "failed"]
    )
    for rec in records:
        if isinstance(rec, EpisodeSummary):
            case, run, failed = rec.case_label, 0, False
        else:
            case, run, failed = rec.case, rec.run, rec.failed
        per_agent = rec.trigger_counts + rec.max_dataset_size
        writer.writerow(
            [case, str(run), str(rec.seed), fmt_float(rec.final_error)]
            + ([""] * (2 * n_agents) if failed else [str(v) for v in per_agent])
            + [
                fmt_float(rec.epsilon),
                fmt_bool(rec.domain_ok),
                fmt_bool(rec.gamma_ok),
                fmt_bool(failed),
            ]
        )
    _atomic_write(path, buf.getvalue())


def write_montecarlo_csv(path, mc: McSummary, meta: dict) -> None:
    """Per-run error series plus per-(case, time) aggregates.

    Columns: case, run, seed, t, err, err_mean, err_max, err_min. The
    aggregate columns repeat the across-run statistics for the row's
    (case, t) pair, ignoring failed runs.
    """
    buf = io.StringIO()
    buf.write(_meta_block(meta))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case", "run", "seed", "t", "err", "err_mean", "err_max", "err_min"])
    by_key = {(r.case, r.run): r for r in mc.records}
    for case in mc.cases:
        series = mc.errors[case]
        if np.all(np.isnan(series)):
            # every run of this case failed; nothing to aggregate or emit
            continue
        with np.errstate(invalid="ignore"):
            mean = np.nanmean(series, axis=0)
            lo = np.nanmin(series, axis=0)
            hi = np.nanmax(series, axis=0)
        for run in range(mc.n_runs):
            rec = by_key[(case, run)]
            if rec.failed:
                continue
            for k in range(mc.times.size):
                writer.writerow(
                    [
                        case,
                        str(run),
                        str(rec.seed),
                        fmt_float(mc.times[k]),
                        fmt_float(series[run, k]),
                        fmt_float(mean[k]),
                        fmt_float(hi[k]),
                        fmt_float(lo[k]),
                    ]
                )
    _atomic_write(path, buf.getvalue())

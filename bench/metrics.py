"""Metric names, units and how each is computed.

END_TO_END metrics come from untraced units (``--trace 0``); PER_LAYER
metrics from traced units (``--trace 1``). BENCHMARK.json lists the same
names, and selftest.py checks that the two agree. Per-layer values are
per unit (one complete workload), averaged over the traced units of a
run, so counts repeat exactly for a given seed.
"""

from __future__ import annotations

import numpy as np

from instrument import CSV_WRITERS, SPAN_NAMES

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("agent_steps_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("step_us_p50", "us", "lower"),
    ("step_us_p99", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

PER_LAYER = (
    ("engine.step.self_s", "s", "lower"),
    ("engine.step.busy_s", "s", "lower"),
    ("control.busy_s", "s", "lower"),
    ("plants.drift.calls", "count", "lower"),
    ("plants.drift.busy_s", "s", "lower"),
    ("triggers.evaluate.busy_s", "s", "lower"),
    ("engine.rk4_step.busy_s", "s", "lower"),
    ("gp.posterior.calls", "count", "lower"),
    ("gp.posterior.busy_s", "s", "lower"),
    ("gp.posterior.us_p50", "us", "lower"),
    ("gp.posterior.mean_m", "points", "lower"),
    ("gp.posterior.sigma_used_ratio", "ratio", "higher"),
    ("gp.add_point.calls", "count", "lower"),
    ("gp.add_point.busy_s", "s", "lower"),
    ("gp.add_point.us_p50", "us", "lower"),
    ("gp.from_data.calls", "count", "lower"),
    ("gp.from_data.busy_s", "s", "lower"),
    ("engine.init_state.busy_s", "s", "lower"),
    ("engine.prepare_run.busy_s", "s", "lower"),
    ("gp.posterior_grid.busy_s", "s", "lower"),
    ("engine.end_checks.busy_s", "s", "lower"),
    ("engine.run_monte_carlo.parallel_efficiency", "ratio", "higher"),
    ("engine.run_monte_carlo.failed_runs", "count", "lower"),
    ("reporting.write_csv.busy_s", "s", "lower"),
    ("reporting.bytes_written", "B", "lower"),
    ("reporting.git_describe.calls", "count", "lower"),
    ("reporting.git_describe.busy_s", "s", "lower"),
    ("rng.normal.calls", "count", "lower"),
    ("analysis.consensus_error.busy_s", "s", "lower"),
    ("cli.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_ID = {name: i for i, name in enumerate(SPAN_NAMES)}


def merge_spans(chunks: list[dict]) -> dict:
    """Concatenate span chunks (parent process, then worker dumps) into arrays.

    Parent indices are local to a chunk; a chunk's roots stay roots, so a
    worker's episodes are never counted as children of the parent's
    run_monte_carlo span. ``chunk`` says which chunk a span came from.
    """
    cols = {"name": [], "parent": [], "start": [], "end": [], "chunk": []}
    offset = 0
    m_sum = 0
    for k, chunk in enumerate(chunks):
        parent = np.frombuffer(chunk["parent"], dtype=np.int32).astype(np.int64)
        cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
        cols["name"].append(np.frombuffer(chunk["name"], dtype=np.int32))
        cols["start"].append(np.frombuffer(chunk["start"], dtype=np.float64))
        cols["end"].append(np.frombuffer(chunk["end"], dtype=np.float64))
        cols["chunk"].append(np.full(parent.size, k, dtype=np.int32))
        offset += parent.size
        m_sum += chunk["m_sum"]
    spans = {key: np.concatenate(parts) for key, parts in cols.items()}
    spans["dur"] = spans["end"] - spans["start"]
    spans["m_sum"] = m_sum
    return spans


def write_spans(path: str, spans: dict) -> None:
    """Write merged spans, with the span-name table, as an .npz file."""
    np.savez(
        path,
        names=np.array(SPAN_NAMES),
        **{key: spans[key] for key in ("name", "parent", "start", "end", "chunk")},
    )


def sigma_needed(episodes: list[dict]) -> int:
    """Posterior σ values a run's outputs consume.

    Online rules read σ at every agent-step; offline runs read it only on
    logged rows. Each episode adds its terminal row and one σ per event.
    """
    total = 0
    for ep in episodes:
        rows = ep["n_steps"] if ep["online"] else ep["n_logged"]
        total += ep["n_agents"] * (rows + 1) + len(ep["events"])
    return total


def layer_metrics(spans: dict, episodes: list[dict], mc_summaries: list, jobs: int,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer values of one traced unit."""
    n_names = len(SPAN_NAMES)
    name, parent, dur = spans["name"], spans["parent"], spans["dur"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    calls = np.bincount(name, minlength=n_names)
    busy = np.bincount(name, weights=dur, minlength=n_names)
    own = np.bincount(name, weights=self_time, minlength=n_names)

    def b(*names):
        return float(sum(busy[_ID[n]] for n in names))

    def p50_us(span_name):
        d = dur[name == _ID[span_name]]
        return float(np.median(d) * 1e6) if d.size else 0.0

    n_post = int(calls[_ID["gp.posterior"]])
    mc_wall = b("engine.run_monte_carlo")
    return {
        "engine.step.self_s": float(own[_ID["engine.step"]]),
        "engine.step.busy_s": b("engine.step"),
        "control.busy_s": b(
            "control.auxiliary_rate", "control.control_proposed", "control.control_conventional"
        ),
        "plants.drift.calls": int(calls[_ID["plants.drift"]]),
        "plants.drift.busy_s": b("plants.drift"),
        "triggers.evaluate.busy_s": b("triggers.evaluate"),
        "engine.rk4_step.busy_s": b("engine.rk4_step"),
        "gp.posterior.calls": n_post,
        "gp.posterior.busy_s": b("gp.posterior"),
        "gp.posterior.us_p50": p50_us("gp.posterior"),
        "gp.posterior.mean_m": spans["m_sum"] / n_post if n_post else 0.0,
        "gp.posterior.sigma_used_ratio": sigma_needed(episodes) / n_post if n_post else 0.0,
        "gp.add_point.calls": int(calls[_ID["gp.add_point"]]),
        "gp.add_point.busy_s": b("gp.add_point"),
        "gp.add_point.us_p50": p50_us("gp.add_point"),
        "gp.from_data.calls": int(calls[_ID["gp.from_data"]]),
        "gp.from_data.busy_s": b("gp.from_data"),
        "engine.init_state.busy_s": b("engine.init_state"),
        "engine.prepare_run.busy_s": b("engine.prepare_run"),
        "gp.posterior_grid.busy_s": b("gp.posterior_grid"),
        "engine.end_checks.busy_s": b("gp.estimate_lipschitz", "gp.check_gamma_condition"),
        # worker episode time over pool capacity; 0 where no pool runs
        "engine.run_monte_carlo.parallel_efficiency": (
            b("engine.run_episode") / (jobs * mc_wall) if mc_wall > 0 else 0.0
        ),
        "engine.run_monte_carlo.failed_runs": sum(
            1 for mc in mc_summaries for rec in mc.records if rec.failed
        ),
        "reporting.write_csv.busy_s": b(*CSV_WRITERS),
        "reporting.bytes_written": bytes_written,
        "reporting.git_describe.calls": int(calls[_ID["reporting.git_describe"]]),
        "reporting.git_describe.busy_s": b("reporting.git_describe"),
        "rng.normal.calls": int(calls[_ID["rng.normal"]]),
        "analysis.consensus_error.busy_s": b("analysis.consensus_error"),
        "cli.overhead_s": float(own[_ID["cli.main"]]),
        "trace.spans": int(dur.size),
    }

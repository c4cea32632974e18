"""Wrappers installed around the package's public functions.

Nothing under src/ is changed: each wrapper replaces a public name where
its caller looks it up (``gpconsensus.engine.step`` for the episode loop,
``gpconsensus.cli.run_episode`` for the CLI, ``GpModel.posterior`` on the
class), and ``uninstall`` puts the originals back.

Two levels:

- untraced: ``engine.step`` is timed with two clock reads per call, and
  ``run_episode`` results are captured for the output check;
- traced: additionally every name in ``SPAN_TARGETS`` records a span
  (name, start, end, parent) in flat in-memory arrays.

Pool workers inherit the wrappers by fork. Each worker writes what it
recorded to a pickle in ``dump_dir`` after every episode, and the parent
merges those files once the sweep returns.
"""

from __future__ import annotations

import array
import functools
import glob
import os
import pickle
import resource
import time

import gpconsensus.cli as cli
import gpconsensus.engine as engine
import gpconsensus.reporting as reporting
from gpconsensus.errors import GpConsensusError
from gpconsensus.gp import GpModel
from gpconsensus.rng import SplitMix64

clock = time.perf_counter

# Keep every 25th logged row of x for the tolerance check (plus the last).
X_SAMPLE_STRIDE = 25

# (span name, objects whose attribute is replaced, attribute). A name is
# wrapped in every namespace its callers look it up in.
SPAN_TARGETS = (
    ("cli.main", (cli,), "main"),
    ("engine.run_episode", (cli, engine), "run_episode"),
    ("engine.run_monte_carlo", (cli,), "run_monte_carlo"),
    ("engine.prepare_run", (cli, engine), "prepare_run"),
    ("engine.init_state", (engine,), "init_state"),
    ("engine.step", (engine,), "step"),
    ("engine.rk4_step", (engine,), "rk4_step"),
    ("control.auxiliary_rate", (engine,), "auxiliary_rate"),
    ("control.control_proposed", (engine,), "control_proposed"),
    ("control.control_conventional", (engine,), "control_conventional"),
    ("triggers.evaluate", (engine,), "evaluate_trigger"),
    ("plants.drift", (engine,), "drift"),
    ("plants.measure", (engine,), "measure"),
    ("gp.posterior", (GpModel,), "posterior"),
    ("gp.posterior_grid", (GpModel,), "posterior_grid"),
    ("gp.add_point", (GpModel,), "add_point"),
    ("gp.estimate_lipschitz", (engine,), "estimate_lipschitz"),
    ("gp.check_gamma_condition", (engine,), "check_gamma_condition"),
    ("rng.normal", (SplitMix64,), "normal"),
    ("analysis.consensus_error", (engine,), "consensus_error"),
    ("reporting.write_trajectory_csv", (cli,), "write_trajectory_csv"),
    ("reporting.write_summary_csv", (cli,), "write_summary_csv"),
    ("reporting.write_montecarlo_csv", (cli,), "write_montecarlo_csv"),
    ("reporting.build_meta", (cli,), "build_meta"),
    ("reporting.git_describe", (cli, reporting), "git_describe"),
)
FROM_DATA = "gp.from_data"
SPAN_NAMES = tuple(name for name, _, _ in SPAN_TARGETS) + (FROM_DATA,)
CSV_WRITERS = (
    "reporting.write_trajectory_csv",
    "reporting.write_summary_csv",
    "reporting.write_montecarlo_csv",
)


class Spans:
    """Flat span store: one entry per call, parents as indices (-1 = root)."""

    def __init__(self):
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.m_sum = 0  # dataset size summed over posterior calls

    def clear(self):
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.stack[:] = [-1]
        self.m_sum = 0

    def take(self) -> dict:
        out = {
            "name": self.name.tobytes(),
            "parent": self.parent.tobytes(),
            "start": self.start.tobytes(),
            "end": self.end.tobytes(),
            "m_sum": self.m_sum,
        }
        self.clear()
        return out

    def wrap(self, name_id: int, fn, count_m: bool = False):
        names, parents, starts, ends, stack = (
            self.name,
            self.parent,
            self.start,
            self.end,
            self.stack,
        )
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if count_m:
                spans.m_sum += args[0].size
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper


def capture_episode(config, traj, summary) -> dict:
    """What the output check compares, plus the counts the metrics need."""
    x = traj.x[::X_SAMPLE_STRIDE].tolist()
    x.append(traj.x[-1].tolist())
    return {
        "key": f"{summary.case_label}/{summary.seed}",
        "events": [[ev.agent, ev.step_index] for ev in summary.events],
        "final_error": summary.final_error,
        "x": x,
        "n_agents": config.n_agents,
        "n_steps": int(round(config.t_end / config.dt)),
        "n_logged": int(traj.t.size - 1),
        "online": config.learning != "offline",
        "error": None,
    }


class Instrument:
    """Installs the wrappers and collects what they record."""

    def __init__(self, dump_dir: str, trace: bool):
        self.dump_dir = dump_dir
        self.trace = trace
        self.pid = os.getpid()
        self.step_s = array.array("d")
        self.episodes: list[dict] = []
        self.spans = Spans()
        self.mc_summaries: list = []
        self.bytes_written = 0
        self._saved: list[tuple[object, str, object]] = []
        self._worker_pid: int | None = None
        self._dumps = 0

    # -- install / uninstall -------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self.trace:
            for name_id, (name, owners, attr) in enumerate(SPAN_TARGETS):
                original = getattr(owners[0], attr)
                if name in CSV_WRITERS:
                    original = self._counting_writer(original)
                wrapped = self.spans.wrap(name_id, original, count_m=name == "gp.posterior")
                for owner in owners:
                    self._patch(owner, attr, wrapped)
            from_data = GpModel.__dict__["from_data"].__func__
            self._patch(
                GpModel,
                "from_data",
                classmethod(self.spans.wrap(SPAN_NAMES.index(FROM_DATA), from_data)),
            )
        else:
            self._patch(engine, "step", self._timed_step(engine.step))
        self._patch(cli, "run_monte_carlo", self._keep_mc(cli.run_monte_carlo))
        captured = self._capturing_episode(engine.run_episode)
        for owner in (cli, engine):
            self._patch(owner, "run_episode", captured)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------

    def _timed_step(self, fn):
        samples = self.step_s

        @functools.wraps(fn)
        def step(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            samples.append(clock() - t0)
            return out

        return step

    def _keep_mc(self, fn):
        @functools.wraps(fn)
        def run_monte_carlo(*args, **kwargs):
            mc = fn(*args, **kwargs)
            self.mc_summaries.append(mc)
            return mc

        return run_monte_carlo

    def _counting_writer(self, fn):
        @functools.wraps(fn)
        def write(path, *args, **kwargs):
            fn(path, *args, **kwargs)
            self.bytes_written += os.path.getsize(path)

        return write

    def _capturing_episode(self, fn):
        @functools.wraps(fn)
        def run_episode(config):
            in_worker = os.getpid() != self.pid
            if in_worker:
                self._enter_worker()
            try:
                traj, summary = fn(config)
            except GpConsensusError as exc:
                key = f"{config.case_label}/{config.seed}"
                self.episodes.append({"key": key, "error": str(exc)})
                if in_worker:
                    self._dump()
                raise
            self.episodes.append(capture_episode(config, traj, summary))
            if in_worker:
                self._dump()
            return traj, summary

        return run_episode

    # -- pool workers ------------------------------------------------------

    def _enter_worker(self) -> None:
        """First call in a forked worker: drop what the parent had recorded."""
        if self._worker_pid == os.getpid():
            return
        self._worker_pid = os.getpid()
        del self.step_s[:]
        self.episodes.clear()
        self.spans.clear()

    def _dump(self) -> None:
        record = {
            "pid": os.getpid(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "episodes": list(self.episodes),
            "step_s": self.step_s.tobytes(),
            "spans": self.spans.take() if self.trace else None,
        }
        self.episodes.clear()
        del self.step_s[:]
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}-{self._dumps}.pkl")
        self._dumps += 1
        with open(path, "wb") as fh:
            pickle.dump(record, fh)

    def collect_workers(self) -> list[dict]:
        """Load and delete the records pool workers wrote since the last call."""
        records = []
        for path in sorted(glob.glob(os.path.join(self.dump_dir, "worker-*.pkl"))):
            with open(path, "rb") as fh:
                records.append(pickle.load(fh))  # written by our own workers
            os.unlink(path)
        return records

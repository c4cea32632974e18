"""CSV layer: shortest round-trip floats, meta blocks, atomic writes."""

import csv
import math
import os
import subprocess

import numpy as np
import pytest

from gpconsensus import reporting
from gpconsensus.analysis import consensus_error
from gpconsensus.config import SimConfig
from gpconsensus.engine import McRunRecord, run_episode, run_monte_carlo
from gpconsensus.presets import case_preset
from gpconsensus.reporting import (
    build_meta,
    fmt_bool,
    fmt_float,
    git_describe,
    summary_rows,
    write_montecarlo_csv,
    write_summary_csv,
    write_trajectory_csv,
)
from gpconsensus.rng import SplitMix64
from oracles import read_trajectory_csv

EXACT_TOL = 1e-12


def short_episode(**kw):
    cfg = case_preset("d")
    cfg = SimConfig(**{**cfg.__dict__, "t_end": 0.05, **kw})
    return run_episode(cfg)


def rows_without_meta(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(lines))


class TestFormatting:
    def test_shortest_forms(self):
        assert fmt_float(0.1) == "0.1"
        assert fmt_float(1.0) == "1.0"
        assert fmt_float(1 / 3) == "0.3333333333333333"
        assert fmt_bool(True) == "true"
        assert fmt_bool(False) == "false"

    def test_round_trip_is_exact_for_random_doubles(self):
        rng = SplitMix64(2024)
        for _ in range(2000):
            v = (rng.uniform(-1.0, 1.0)) * 10.0 ** int(rng.uniform(-12, 12))
            assert float(fmt_float(v)) == v
        for v in (0.0, -0.0, 1e-308, 1.7976931348623157e308, math.pi):
            assert float(fmt_float(v)) == v

    def test_git_describe_returns_label(self):
        label = git_describe()
        assert isinstance(label, str) and label

    def test_two_metas_start_one_git_subprocess(self, monkeypatch):
        # the code a process runs cannot change, so its label is computed once
        starts = []
        run = subprocess.run

        def counting(*args, **kwargs):
            starts.append(args[0])
            return run(*args, **kwargs)

        monkeypatch.setattr(reporting.subprocess, "run", counting)
        _, summary = short_episode()
        assert build_meta(summary)["source"] == build_meta(summary)["source"]
        assert starts == [["git", "describe", "--always", "--dirty"]]


class TestTrajectoryCsv:
    def test_round_trip_values_bitwise(self, tmp_path):
        traj, summary = short_episode()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, build_meta(summary))
        meta, header, mat = read_trajectory_csv(path)

        n = traj.x.shape[1]
        expect_header = ["t"]
        for prefix in ("x", "xbar", "u", "rho", "eta", "trig", "d"):
            expect_header += [f"{prefix}_{i + 1}" for i in range(n)]
        expect_header.append("err")
        assert header == expect_header
        assert mat.shape == (traj.t.size, len(header))

        assert np.array_equal(mat[:, 0], traj.t)
        blocks = [traj.x, traj.x_bar, traj.u, traj.rho, traj.eta]
        for b, block in enumerate(blocks):
            assert np.array_equal(mat[:, 1 + b * n : 1 + (b + 1) * n], block)
        assert np.array_equal(mat[:, 1 + 5 * n : 1 + 6 * n], traj.fired.astype(float))
        assert np.array_equal(mat[:, 1 + 6 * n : 1 + 7 * n], traj.dataset_size.astype(float))
        assert np.array_equal(mat[:, -1], traj.err)

    def test_meta_block_contents(self, tmp_path):
        traj, summary = short_episode()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, build_meta(summary))
        meta, _, _ = read_trajectory_csv(path)

        for key in (
            "case", "seed", "delta", "tau", "beta", "eta_bar", "epsilon",
            "x_bar_star", "domain_ok", "gamma_ok", "config", "source",
        ):
            assert key in meta
        assert meta["case"] == "d"
        assert float(meta["delta"]) == summary.bound.delta
        assert float(meta["tau"]) == summary.bound.tau
        assert float(meta["beta"]) == summary.bound.beta
        assert float(meta["eta_bar"]) == summary.bound.eta_bar_lower
        assert float(meta["epsilon"]) == summary.epsilon
        assert meta["config"] == summary.config_digest
        assert meta["domain_ok"] in ("true", "false")

        with open(path, "r", encoding="utf-8") as fh:
            head = [next(fh) for _ in range(3)]
        for line in head:
            assert line.startswith("# ") and " = " in line

    def test_err_column_recomputable_from_states(self, tmp_path):
        # shortest round-trip floats: recomputing the error from the
        # parsed state columns must reproduce the stored column exactly
        traj, summary = short_episode()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, build_meta(summary))
        meta, header, mat = read_trajectory_csv(path)
        x_bar_star = float(meta["x_bar_star"])
        x_cols = mat[:, 1:5]
        for r in range(mat.shape[0]):
            assert consensus_error(x_cols[r], x_bar_star) == mat[r, -1]

    def test_identical_inputs_identical_bytes(self, tmp_path):
        traj, summary = short_episode()
        meta = build_meta(summary)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(a, traj, meta)
        write_trajectory_csv(b, traj, meta)
        assert a.read_bytes() == b.read_bytes()


class TestAtomicWrite:
    def test_no_partials_left_behind(self, tmp_path):
        traj, summary = short_episode()
        write_trajectory_csv(tmp_path / "out.csv", traj, build_meta(summary))
        names = sorted(os.listdir(tmp_path))
        assert names == ["out.csv"]

    def test_rewrite_replaces_contents(self, tmp_path):
        traj, summary = short_episode()
        path = tmp_path / "out.csv"
        write_trajectory_csv(path, traj, {"label": "first"})
        first = path.read_bytes()
        write_trajectory_csv(path, traj, {"label": "second"})
        second = path.read_bytes()
        assert first != second
        assert b"second" in second and b"first" not in second

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_file_mode_follows_umask(self, tmp_path, umask, mode):
        traj, summary = short_episode()
        path = tmp_path / "out.csv"
        previous = os.umask(umask)
        try:
            write_trajectory_csv(path, traj, build_meta(summary))
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == mode

    def test_creates_missing_directories(self, tmp_path):
        traj, summary = short_episode()
        path = tmp_path / "deep" / "nested" / "out.csv"
        write_trajectory_csv(path, traj, build_meta(summary))
        assert path.exists()


class TestSummaryCsv:
    def test_episode_row_fields(self, tmp_path):
        traj, summary = short_episode()
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [summary], 4, build_meta(summary))
        rows = rows_without_meta(path)
        header, row = rows[0], rows[1]
        assert header == (
            ["case", "run", "seed", "final_err"]
            + [f"trig_{i}" for i in (1, 2, 3, 4)]
            + [f"d_{i}" for i in (1, 2, 3, 4)]
            + ["epsilon", "domain_ok", "gamma_ok", "failed"]
        )
        assert len(row) == len(header)
        assert row[0] == "d" and row[1] == "0"
        assert float(row[3]) == summary.final_error
        assert tuple(int(v) for v in row[4:8]) == summary.trigger_counts
        assert tuple(int(v) for v in row[8:12]) == summary.max_dataset_size
        assert row[-1] == "false"

    def test_failed_run_padded_to_header_width(self, tmp_path):
        ok = McRunRecord(
            case="d", run=0, seed=7, final_error=0.01,
            trigger_counts=(1, 2, 3, 4), max_dataset_size=(1, 2, 3, 4),
            epsilon=0.78, domain_ok=True, gamma_ok=True,
            failed=False, message="",
        )
        bad = McRunRecord(case="d", run=1, seed=8, failed=True, message="database full")
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [ok, bad], 4, {"runs": 2})
        rows = rows_without_meta(path)
        assert len(rows) == 3
        width = len(rows[0])
        assert all(len(r) == width for r in rows[1:])
        failed_row = rows[2]
        assert failed_row[-1] == "true"
        # per-agent cells are blank on a failed run
        assert failed_row[4:12] == [""] * 8

    def test_mixed_record_kinds_share_schema(self, tmp_path):
        traj, summary = short_episode()
        rows = summary_rows([summary])
        assert rows[0][1] == "0"
        assert rows[0][0] == "d"


@pytest.fixture(scope="module")
def mc():
    base = SimConfig(t_end=0.1, seed=11)
    return run_monte_carlo(base, n_runs=2, cases=("a", "d"))


class TestMonteCarloCsv:
    def test_schema_and_aggregates(self, tmp_path, mc):
        path = tmp_path / "montecarlo.csv"
        write_montecarlo_csv(path, mc, {"runs": mc.n_runs})
        rows = rows_without_meta(path)
        assert rows[0] == ["case", "run", "seed", "t", "err", "err_mean", "err_max", "err_min"]
        body = rows[1:]
        assert len(body) == 2 * 2 * mc.times.size

        # aggregate columns must restate the across-run stats per (case, t)
        for case in ("a", "d"):
            series = mc.errors[case]
            case_rows = [r for r in body if r[0] == case]
            for r in case_rows:
                k = int(round(float(r[3]) / (mc.times[1] - mc.times[0])))
                assert float(r[5]) == np.mean(series[:, k])
                assert float(r[6]) == np.max(series[:, k])
                assert float(r[7]) == np.min(series[:, k])

    def test_err_column_matches_series(self, tmp_path, mc):
        path = tmp_path / "montecarlo.csv"
        write_montecarlo_csv(path, mc, {})
        body = rows_without_meta(path)[1:]
        for r in body:
            run = int(r[1])
            k = int(round(float(r[3]) / (mc.times[1] - mc.times[0])))
            assert float(r[4]) == mc.errors[r[0]][run, k]

    def test_rewrites_are_byte_identical(self, tmp_path, mc):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_montecarlo_csv(a, mc, {"runs": mc.n_runs})
        write_montecarlo_csv(b, mc, {"runs": mc.n_runs})
        assert a.read_bytes() == b.read_bytes()

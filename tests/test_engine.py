"""Closed-loop integrator, episode orchestration, and Monte Carlo sweeps."""

import dataclasses
import math

import numpy as np
import pytest

from gpconsensus.analysis import appendix_solution, consensus_error
from gpconsensus.config import SimConfig
from gpconsensus.engine import (
    SimState,
    init_state,
    make_offline_dataset,
    prepare_run,
    rk4_step,
    run_episode,
    run_monte_carlo,
    step,
)
from gpconsensus.errors import CapacityExceeded, ConfigError, OutOfDomain
from gpconsensus.gp import GpModel
from gpconsensus.plants import make_appendix_plant, make_benchmark_plant
from gpconsensus.presets import BENCH_INITIAL_STATES, case_preset
from gpconsensus.rng import SplitMix64

EXACT_TOL = 1e-12
# 2/c * N * eta_bar for the stock bound setup (delta 0.01, tau 1e-3)
EPSILON_STOCK = 0.7811886579452005
BETA_STOCK = 23.838114035243105
LIP_BENCH = 10.056694142119985

RING4 = ((1, 2), (2, 3), (3, 4), (4, 1))


def fast_oracle_config(**kw) -> SimConfig:
    """Model-free closed loop: exact compensation, no learning."""
    base = dict(
        n_agents=4,
        edges=RING4,
        plant="appendix",
        controller="proposed",
        learning="offline",
        predictor="oracle",
        offline_dataset_size=0,
        initial_states=(0.5, -0.25, 0.75, -1.0),
        t_end=1.0,
        seed=0,
    )
    base.update(kw)
    return SimConfig(**base)


class TestRk4Step:
    def test_fourth_order_on_linear_consensus_pair(self):
        # halving dt must cut the max error by ~16x; require >= 8x
        c, eps = 5.0, 0.3
        x0 = (1.0, 0.0)

        def rhs(v):
            return np.array(
                [eps - c * (v[0] - v[1]), eps - c * (v[1] - v[0])]
            )

        max_errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            v = np.array(x0)
            worst = 0.0
            for k in range(1, int(round(1.0 / dt)) + 1):
                v = rk4_step(rhs, v, dt)
                ref = appendix_solution(x0, eps, c, k * dt)
                worst = max(worst, abs(v[0] - ref[0]), abs(v[1] - ref[1]))
            max_errs.append(worst)
        assert max_errs[0] / max_errs[1] >= 8.0
        assert max_errs[1] / max_errs[2] >= 8.0

    def test_exact_for_constant_field(self):
        out = rk4_step(lambda v: np.array([2.0, -3.0]), np.array([1.0, 1.0]), 0.25)
        assert np.array_equal(out, np.array([1.5, 0.25]))

    def test_one_step_matches_truncated_series(self):
        # scalar xdot = x: the step factor is the quartic Taylor polynomial
        h = 0.1
        out = rk4_step(lambda v: v, np.array([1.0]), h)
        expected = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
        assert abs(out[0] - expected) <= 1e-15


class TestOfflineDataset:
    def test_grid_spacing_and_endpoints(self):
        plant = make_benchmark_plant()
        data = make_offline_dataset(plant, 150, 0.0, SplitMix64(0))
        xs = np.array([m.x for m in data])
        assert xs.size == 150
        assert xs[0] == -1.5 and xs[-1] == 1.5
        assert np.allclose(np.diff(xs), 3.0 / 149.0, atol=1e-15)

    def test_two_points_are_the_endpoints(self):
        plant = make_benchmark_plant()
        data = make_offline_dataset(plant, 2, 0.0, SplitMix64(0))
        assert [m.x for m in data] == [-1.5, 1.5]

    def test_zero_size_is_empty(self):
        plant = make_benchmark_plant()
        assert make_offline_dataset(plant, 0, 0.01, SplitMix64(0)) == []

    def test_zero_noise_hits_f_exactly(self):
        plant = make_benchmark_plant()
        for m in make_offline_dataset(plant, 25, 0.0, SplitMix64(7)):
            assert abs(m.y - plant.f_true(m.x)) <= EXACT_TOL

    def test_noise_is_reproducible(self):
        plant = make_benchmark_plant()
        a = make_offline_dataset(plant, 30, 0.01, SplitMix64(11))
        b = make_offline_dataset(plant, 30, 0.01, SplitMix64(11))
        assert [m.y for m in a] == [m.y for m in b]

    def test_agents_draw_independent_noise(self):
        run = prepare_run(case_preset("a"))
        state = init_state(run, SplitMix64(0))
        y0 = state.models[0].outputs
        y1 = state.models[1].outputs
        assert np.array_equal(state.models[0].inputs, state.models[1].inputs)
        assert not np.array_equal(y0, y1)


class TestPrepareRun:
    @pytest.mark.parametrize(
        "case_id,mode",
        [("a", "none"), ("b", "naive"), ("c", "none"), ("d", "proposed")],
    )
    def test_trigger_mode_per_case(self, case_id, mode):
        assert prepare_run(case_preset(case_id)).trigger_mode == mode

    def test_stock_bound_constants(self):
        run = prepare_run(case_preset("d"))
        assert abs(run.epsilon - EPSILON_STOCK) <= EXACT_TOL
        assert abs(run.bound.beta - BETA_STOCK) <= EXACT_TOL
        assert abs(run.root_beta**2 - run.bound.beta) <= 1e-12

    def test_auto_lipschitz_matches_grid_max(self):
        run = prepare_run(case_preset("d"))
        assert abs(run.bound.lip_f - LIP_BENCH) <= 1e-3

    def test_explicit_lipschitz_honored(self):
        cfg = dataclasses.replace(case_preset("d"), lip_f=12.5)
        assert prepare_run(cfg).bound.lip_f == 12.5

    def test_rejects_invalid_config(self):
        with pytest.raises(ConfigError):
            prepare_run(dataclasses.replace(case_preset("d"), delta=0.5))


class TestStep:
    def test_zero_residual_tracking_error_contracts_exactly(self):
        # x - x_bar along the all-ones direction with the input held per
        # step integrates exactly: one step multiplies it by (1 - c dt)
        run = prepare_run(fast_oracle_config())
        alpha, base = 0.5, 0.2
        n = 4
        state = SimState(
            t=0.0,
            step_index=0,
            x=np.full(n, base + alpha),
            x_bar=np.full(n, base),
            x_prev=np.full(n, base + alpha),
            u_prev=np.zeros(n),
            models=[GpModel(run.kernel, 0.01) for _ in range(n)],
            trigger_counts=np.zeros(n, dtype=np.int64),
        )
        rng = SplitMix64(0)
        c, dt = run.config.c, run.config.dt
        for k in range(1, 6):
            step(state, run, rng)
            expected = alpha * (1.0 - c * dt) ** k
            for i in range(n):
                assert abs((state.x[i] - state.x_bar[i]) - expected) <= EXACT_TOL
                assert abs(state.x_bar[i] - base) <= EXACT_TOL

    def test_unit_consensus_error_shrinks_at_fiedler_rate(self):
        # start on a lambda=2 Laplacian eigenvector with zero tracking
        # error: one step scales the consensus error by about e^(-2 dt)
        e = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
        cfg = fast_oracle_config(initial_states=tuple(e))
        run = prepare_run(cfg)
        state = init_state(run, SplitMix64(0))
        err0 = consensus_error(state.x, 0.0)
        assert abs(err0 - 1.0) <= EXACT_TOL
        step(state, run, SplitMix64(0))
        ratio = consensus_error(state.x, 0.0) / err0
        assert abs(ratio - math.exp(-2.0 * cfg.dt)) <= 5e-6

    def test_offline_learning_never_grows_datasets(self):
        cfg = dataclasses.replace(case_preset("a"), t_end=0.2)
        traj, summary = run_episode(cfg)
        assert np.all(traj.dataset_size == 150)
        assert summary.trigger_counts == (0, 0, 0, 0)

    def test_eta_query_skip_does_not_change_dynamics(self):
        cfg = fast_oracle_config(t_end=0.0)
        states = []
        infos = []
        for need in (True, False):
            run = prepare_run(cfg)
            state = init_state(run, SplitMix64(5))
            infos.append(step(state, run, SplitMix64(5), need_eta=need))
            states.append(state)
        assert np.array_equal(states[0].x, states[1].x)
        assert np.array_equal(states[0].x_bar, states[1].x_bar)
        assert np.array_equal(infos[0].u, infos[1].u)

    def test_fired_update_feeds_this_steps_input(self):
        # single agent at rest: u = -f_hat(x); the model is empty before
        # the step, so only a pre-control update can explain u = -f(x)
        cfg = SimConfig(
            n_agents=1,
            edges=(),
            plant="benchmark",
            controller="proposed",
            learning="online_proposed",
            initial_states=(0.25,),
            t_end=1.0,
            seed=2,
        )
        run = prepare_run(cfg)
        state = init_state(run, SplitMix64(cfg.seed))
        f_here = run.plant.f_true(0.25)
        info = step(state, run, SplitMix64(cfg.seed))
        assert info.fired[0] == 1
        assert abs(info.u[0] + f_here) <= 0.05

    def test_event_records_measurement_site(self):
        cfg = dataclasses.replace(case_preset("d"), t_end=0.05)
        traj, summary = run_episode(cfg)
        assert summary.events, "online case should trigger early"
        for ev in summary.events:
            assert ev.t == ev.step_index * cfg.dt
            assert ev.sigma_after <= cfg.sigma_n + 1e-12
            assert -1.5 <= ev.x <= 1.5


def escaping_config(**kw) -> SimConfig:
    """Affine drift of +50 with no model: the states leave [-1.5, 1.5] fast."""
    base = dict(
        plant="affine",
        plant_params=(("f_offset", 50.0), ("f_slope", 0.0)),
        learning="offline",
        offline_dataset_size=0,
        t_end=0.5,
    )
    base.update(kw)
    return dataclasses.replace(case_preset("c"), **base)


class TestDomainEscape:
    def test_escape_raises_with_run_context(self):
        with pytest.raises(OutOfDomain, match=r"outside \[-1\.5, 1\.5\].*case=c seed=0"):
            run_episode(escaping_config())

    def test_non_finite_state_raises(self):
        run = prepare_run(fast_oracle_config())
        state = init_state(run, SplitMix64(0))
        state.x[2] = math.nan
        with pytest.raises(OutOfDomain, match="is nan"):
            step(state, run, SplitMix64(0))

    def test_boundary_is_inside(self):
        # appendix plant at rest on its domain edge: x stays exactly at 3.0
        cfg = fast_oracle_config(
            n_agents=1, edges=(), initial_states=(3.0,), t_end=0.01
        )
        traj, _ = run_episode(cfg)
        assert np.all(traj.x == 3.0)

    def test_monte_carlo_records_escape_as_failed(self):
        # sweeps restore case c's 150-point grid; a length scale far below
        # its 0.02 spacing leaves the mean near 0 between the samples
        base = escaping_config(seed=3, t_end=0.2, length_scale=1e-4)
        mc = run_monte_carlo(base, 1, ("c",))
        (rec,) = mc.records
        assert rec.failed
        assert "outside [-1.5, 1.5]" in rec.message
        assert "case=c seed=3" in rec.message


class TestPosteriorQueries:
    """sigma is computed only where a trigger, a logged row or an event reads it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"posterior": 0, "posterior_grid": 0}
        for name in counts:
            original = getattr(GpModel, name)

            def counting(self, x, _name=name, _original=original):
                counts[_name] += 1
                return _original(self, x)

            monkeypatch.setattr(GpModel, name, counting)
        return counts

    def test_offline_queries_sigma_on_logged_rows_only(self, calls):
        cfg = dataclasses.replace(case_preset("c"), t_end=0.1)
        traj, summary = run_episode(cfg)
        n_logged = traj.t.size - 1
        assert n_logged == 10
        assert calls["posterior"] == cfg.n_agents * (n_logged + 1)
        assert calls["posterior_grid"] == cfg.n_agents

    def test_online_queries_once_per_agent_step_plus_events(self, calls):
        cfg = dataclasses.replace(case_preset("d"), t_end=0.1)
        traj, summary = run_episode(cfg)
        assert summary.events
        n_steps = 100
        expected = cfg.n_agents * (n_steps + 1) + len(summary.events)
        assert calls["posterior"] == expected
        assert calls["posterior_grid"] == cfg.n_agents


class TestRunEpisode:
    def test_appendix_replay_matches_closed_form(self):
        cfg = SimConfig(
            n_agents=2,
            edges=((1, 2),),
            plant="appendix",
            controller="conventional",
            learning="offline",
            predictor="oracle_biased",
            eps_bias=0.05,
            t_end=10.0,
            initial_states=(1.0, 0.0),
            offline_dataset_size=0,
            seed=0,
            case_label="appendix",
        )
        traj, summary = run_episode(cfg)
        sup = 0.0
        for row, t in enumerate(traj.t):
            ref = appendix_solution((1.0, 0.0), 0.05, 1.0, float(t))
            sup = max(sup, abs(traj.x[row, 0] - ref[0]), abs(traj.x[row, 1] - ref[1]))
        assert sup <= 1e-3
        drift = np.abs(traj.x.mean(axis=1) - (0.5 + 0.05 * traj.t))
        assert float(drift.max()) <= 1e-3

    def test_auxiliary_mean_conserved_and_converged(self):
        cfg = fast_oracle_config(
            initial_states=BENCH_INITIAL_STATES, t_end=10.0, plant="benchmark"
        )
        traj, summary = run_episode(cfg)
        means = traj.x_bar.mean(axis=1)
        assert float(np.max(np.abs(means - summary.x_bar_star))) <= 1e-8
        assert float(np.linalg.norm(traj.x_bar[-1] - summary.x_bar_star)) <= 1e-6

    def test_zero_horizon_yields_single_record(self):
        cfg = fast_oracle_config(t_end=0.0)
        traj, summary = run_episode(cfg)
        assert traj.t.shape == (1,)
        assert traj.t[0] == 0.0
        assert np.array_equal(traj.x[0], np.array(cfg.initial_states))
        assert np.array_equal(traj.u[0], np.zeros(4))
        assert summary.final_error == consensus_error(
            cfg.initial_states, summary.x_bar_star
        )
        assert summary.trigger_counts == (0, 0, 0, 0)

    def test_trajectory_time_axis(self):
        cfg = fast_oracle_config(t_end=0.1)
        traj, _ = run_episode(cfg)
        assert traj.t[0] == 0.0
        assert np.all(np.diff(traj.t) > 0)
        assert abs(traj.t[-1] - 0.1) <= 1e-12
        # stride 10 at dt 1e-3 logs every 0.01 plus the terminal row
        assert traj.t.shape == (11,)

    def test_bitwise_determinism(self):
        cfg = dataclasses.replace(case_preset("d"), t_end=0.3)
        traj_a, sum_a = run_episode(cfg)
        traj_b, sum_b = run_episode(cfg)
        for name in ("t", "x", "x_bar", "u", "rho", "eta", "fired", "dataset_size", "err"):
            assert np.array_equal(getattr(traj_a, name), getattr(traj_b, name)), name
        assert sum_a == sum_b

    def test_dataset_sizes_monotone(self):
        cfg = dataclasses.replace(case_preset("d"), t_end=0.3)
        traj, summary = run_episode(cfg)
        assert np.all(np.diff(traj.dataset_size, axis=0) >= 0)
        assert tuple(int(v) for v in traj.dataset_size[-1]) == summary.trigger_counts
        assert summary.max_dataset_size == summary.trigger_counts

    def test_capacity_overflow_carries_run_context(self):
        cfg = dataclasses.replace(case_preset("d"), max_points=10, t_end=1.0)
        with pytest.raises(CapacityExceeded, match=r"case=d seed=0"):
            run_episode(cfg)

    def test_finite_difference_measurements_track_f(self):
        cfg = dataclasses.replace(
            case_preset("b"), measurement_mode="finite_difference", t_end=0.2
        )
        traj, summary = run_episode(cfg)
        late = [ev for ev in summary.events if ev.step_index > 0]
        assert late, "expected triggers after the first step"
        plant = make_benchmark_plant()
        for ev in late:
            assert abs(ev.y - plant.f_true(ev.x)) <= 0.25

    def test_benchmark_headline_run(self):
        # stock single-run condition: all agents end inside the epsilon
        # band around the initial mean -0.285
        cfg = dataclasses.replace(case_preset("d"), t_end=2.0)
        traj, summary = run_episode(cfg)
        assert summary.x_bar_star == -0.285
        assert summary.final_error <= EPSILON_STOCK
        assert summary.domain_ok


class TestMonteCarlo:
    def base(self, **kw) -> SimConfig:
        cfg = dict(t_end=0.2, seed=3)
        cfg.update(kw)
        return SimConfig(**cfg)

    def test_deterministic_and_order_independent(self):
        a = run_monte_carlo(self.base(), 2, ("a", "d"), jobs=1)
        b = run_monte_carlo(self.base(), 2, ("a", "d"), jobs=2)
        # repr-compare: the no-event sentinel is NaN, which breaks ==
        assert [repr(r) for r in a.records] == [repr(r) for r in b.records]
        for case in ("a", "d"):
            assert np.array_equal(a.errors[case], b.errors[case])
        assert np.array_equal(a.times, b.times)

    def test_seed_layout_and_distinct_draws(self):
        mc = run_monte_carlo(self.base(), 3, ("d",))
        seeds = [r.seed for r in mc.records]
        assert seeds == [3, 4, 5]
        finals = [r.final_error for r in mc.records]
        assert len(set(finals)) == 3

    def test_offline_cases_keep_grid_size(self):
        mc = run_monte_carlo(self.base(), 2, ("a", "c"))
        for rec in mc.records:
            assert rec.max_dataset_size == (150, 150, 150, 150)
            assert rec.trigger_counts == (0, 0, 0, 0)

    def test_failures_recorded_not_fatal(self):
        mc = run_monte_carlo(self.base(max_points=5), 1, ("a", "d"))
        assert all(r.failed for r in mc.records)
        by_case = {r.case: r for r in mc.records}
        assert "max_points" in by_case["a"].message
        assert "case=d" in by_case["d"].message
        assert np.all(np.isnan(mc.errors["d"]))

    def test_error_series_shape(self):
        mc = run_monte_carlo(self.base(), 2, ("d",))
        rows = int(round(0.2 / 1e-3 / 10)) + 1
        assert mc.errors["d"].shape == (2, rows)
        assert not np.any(np.isnan(mc.errors["d"]))
        assert mc.times[0] == 0.0
        assert abs(mc.times[-1] - 0.2) <= 1e-12

    def test_aux_diagnostics_populated(self):
        mc = run_monte_carlo(self.base(), 2, ("c",))
        for rec in mc.records:
            assert rec.aux_mean_drift <= 1e-8
            assert math.isfinite(rec.aux_final_gap)

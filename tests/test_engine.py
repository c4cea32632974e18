"""Closed-loop integrator, episode orchestration, and Monte Carlo sweeps."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gpconsensus import engine, gp
from gpconsensus.analysis import appendix_solution, consensus_error
from gpconsensus.cli import main
from gpconsensus.config import SimConfig
from gpconsensus.engine import (
    LIP_GRID_STEP,
    SimState,
    auxiliary_step_matrix,
    init_state,
    make_offline_dataset,
    prepare_run,
    rk4_step,
    run_episode,
    run_monte_carlo,
    step,
)
from gpconsensus.errors import (
    CapacityExceeded,
    ConfigError,
    NumericalBreakdown,
    OutOfDomain,
)
from gpconsensus.gp import GpModel, KernelParams, domain_grid
from gpconsensus.plants import (
    estimate_lip_f,
    make_affine_plant,
    make_appendix_plant,
    make_benchmark_plant,
)
from gpconsensus.presets import BENCH_INITIAL_STATES, case_preset
from gpconsensus.rng import SplitMix64
from gpconsensus.topology import build_topology
from oracles import chol, gamma_ok_every_model, mean_grid

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
    LAP_PAIR = build_topology(2, ((1, 2),)).laplacian

    def test_fourth_order_on_linear_consensus_pair(self):
        # x_bar' = -c_bar L x_bar on one edge is the unbiased appendix pair;
        # halving dt must cut the max error by ~16x; require >= 8x
        c_bar = 5.0
        xb0 = (1.0, 0.0)
        plant = make_appendix_plant()
        max_errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            step_matrix = auxiliary_step_matrix(self.LAP_PAIR, c_bar, dt)
            x, xb = np.zeros(2), np.array(xb0)
            worst = 0.0
            for k in range(1, int(round(1.0 / dt)) + 1):
                x, xb = rk4_step(plant, x, np.zeros(2), xb, step_matrix, dt)
                ref = appendix_solution(xb0, 0.0, c_bar, k * dt)
                worst = max(worst, abs(xb[0] - ref[0]), abs(xb[1] - ref[1]))
            max_errs.append(worst)
        assert max_errs[0] / max_errs[1] >= 8.0
        assert max_errs[1] / max_errs[2] >= 8.0

    def test_exact_for_constant_field(self):
        # f = 2 and u = (0, -5): constant drifts (2, -3); x_bar at consensus
        plant = make_affine_plant(f_offset=2.0, f_slope=0.0)
        x, xb = rk4_step(
            plant,
            np.array([1.0, 1.0]),
            np.array([0.0, -5.0]),
            np.array([0.5, 0.5]),
            auxiliary_step_matrix(self.LAP_PAIR, 1.0, 0.25),
            0.25,
        )
        assert np.array_equal(x, np.array([1.5, 0.25]))
        assert np.array_equal(xb, np.array([0.5, 0.5]))

    def test_one_step_matches_truncated_series(self):
        # scalar xdot = x, and x_bar along the pair's eigenvector (1, -1) of
        # eigenvalue 2: both step factors are the quartic Taylor polynomial
        h = 0.1
        plant = make_affine_plant(f_offset=0.0, f_slope=1.0)
        step_matrix = auxiliary_step_matrix(self.LAP_PAIR, 1.0, h)
        x, xb = rk4_step(
            plant, np.array([1.0, 1.0]), np.zeros(2), np.array([1.0, -1.0]), step_matrix, h
        )
        taylor = [1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24 for z in (h, -2.0 * h)]
        assert np.all(np.abs(x - taylor[0]) <= 1e-15)
        assert np.all(np.abs(xb - np.array([1.0, -1.0]) * taylor[1]) <= 1e-15)

    def test_consensus_is_a_fixed_point(self):
        # x_bar + D x_bar moves this consensus vector by one ulp (one case
        # in 60,000 random ones); the increment of x_bar - x_bar[0] is 0
        edges = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8)]
        edges += [(2, 7), (3, 7), (5, 6), (5, 8), (6, 9)]
        lap = build_topology(9, edges).laplacian
        level = np.full(9, 0.4636469787892281)
        plant = make_affine_plant(f_offset=0.0, f_slope=0.0)
        step_matrix = auxiliary_step_matrix(lap, 5.0, 1e-2)
        _, xb = rk4_step(plant, level, np.zeros(9), level, step_matrix, 1e-2)
        assert xb.tobytes() == level.tobytes()

    def test_single_agent_step_matrix_is_zero(self):
        lap = build_topology(1, ()).laplacian
        assert auxiliary_step_matrix(lap, 1.0, 1e-3).tolist() == [[0.0]]


class TestOfflineDataset:
    def test_grid_spacing_and_endpoints(self):
        plant = make_benchmark_plant()
        xs, ys = make_offline_dataset(plant, 150, 0.0, SplitMix64(0))
        assert xs.size == 150 and ys.size == 150
        assert xs[0] == -1.5 and xs[-1] == 1.5
        assert np.allclose(np.diff(xs), 3.0 / 149.0, atol=1e-15)

    def test_two_points_are_the_endpoints(self):
        plant = make_benchmark_plant()
        xs, _ = make_offline_dataset(plant, 2, 0.0, SplitMix64(0))
        assert xs.tolist() == [-1.5, 1.5]

    def test_zero_size_is_empty(self):
        plant = make_benchmark_plant()
        xs, ys = make_offline_dataset(plant, 0, 0.01, SplitMix64(0))
        assert xs.size == 0 and ys.size == 0

    def test_zero_noise_hits_f_exactly(self):
        plant = make_benchmark_plant()
        xs, ys = make_offline_dataset(plant, 25, 0.0, SplitMix64(7))
        for x, y in zip(xs, ys):
            assert abs(y - plant.f_true(x)) <= EXACT_TOL

    def test_noise_is_reproducible(self):
        plant = make_benchmark_plant()
        _, a = make_offline_dataset(plant, 30, 0.01, SplitMix64(11))
        _, b = make_offline_dataset(plant, 30, 0.01, SplitMix64(11))
        assert a.tolist() == b.tolist()

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

    def test_rejects_initial_state_outside_plant_domain(self):
        cfg = dataclasses.replace(
            case_preset("d"), initial_states=(2.0, 0.15, -0.06, -0.71)
        )
        with pytest.raises(ConfigError, match=r"agent 1 is 2\.0, outside \[-1\.5, 1\.5\]"):
            prepare_run(cfg)

    def test_contexts_of_one_config_compare_and_hash_equal(self):
        # x_bar_step is an array derived from the config, left out of ==
        first, second = prepare_run(case_preset("d")), prepare_run(case_preset("d"))
        assert first.x_bar_step is not second.x_bar_step
        assert np.array_equal(first.x_bar_step, second.x_bar_step)
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1


class TestLipMemo:
    """The automatic lip_f scans f_true once per (plant, plant_params)."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return estimate_lip_f(*args, **kwargs)

        monkeypatch.setattr(engine, "estimate_lip_f", counting)
        return calls

    @staticmethod
    def affine(slope, lip_f=None):
        return dataclasses.replace(
            case_preset("d"),
            plant="affine",
            plant_params=(("f_offset", 0.5), ("f_slope", slope)),
            lip_f=lip_f,
        )

    def test_one_scan_per_plant(self, scans):
        for seed in range(5):
            prepare_run(dataclasses.replace(case_preset("a"), seed=seed))
        assert len(scans) == 1
        for case_id in "bcd":
            prepare_run(case_preset(case_id))
        assert len(scans) == 1

    def test_other_plant_params_scan_again(self, scans):
        assert prepare_run(self.affine(2.0)).bound.lip_f == pytest.approx(2.0)
        assert prepare_run(self.affine(3.0)).bound.lip_f == pytest.approx(3.0)
        assert len(scans) == 2
        prepare_run(self.affine(2.0))
        prepare_run(case_preset("d"))
        assert len(scans) == 3

    def test_explicit_lip_f_never_scans(self, scans):
        assert prepare_run(self.affine(2.0, lip_f=7.5)).bound.lip_f == 7.5
        assert prepare_run(dataclasses.replace(case_preset("a"), lip_f=12.5)).bound.lip_f == 12.5
        assert scans == []

    def test_memoised_value_equals_direct_scan(self, scans):
        plant = make_benchmark_plant()
        direct = estimate_lip_f(plant.f_true, plant.domain_lo, plant.domain_hi)
        assert prepare_run(case_preset("d")).bound.lip_f == direct
        assert prepare_run(case_preset("c")).bound.lip_f == direct
        assert len(scans) == 1


def count_kernels_and_solves(monkeypatch):
    """Count ``gp._kernel`` and ``GpModel._solve_lower`` calls into the dict returned."""
    counts = {"kernel": 0, "solve": 0}
    kernel, solve = gp._kernel, GpModel._solve_lower

    def counting_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    def counting_solve(self, *args, **kwargs):
        counts["solve"] += 1
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(gp, "_kernel", counting_kernel)
    monkeypatch.setattr(GpModel, "_solve_lower", counting_solve)
    return counts


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

    def test_fired_update_reuses_the_trigger_query(self, monkeypatch):
        # a query on a nonempty model is one kernel vector and one
        # triangular solve; an event adds only the two solves of its new
        # weights, since its factor row is the query's solve and its
        # post-update posterior needs neither a kernel vector nor a solve.
        # An update that forgets the query solves it again (a first point
        # needs neither), to the same bits
        cfg = dataclasses.replace(case_preset("d"), t_end=0.05)
        counts = count_kernels_and_solves(monkeypatch)
        add_point = GpModel.add_point

        def forgetting_add_point(self, x, y):
            self._query = None
            return add_point(self, x, y)

        def steps():
            run = prepare_run(cfg)
            rng = SplitMix64(cfg.seed)
            state = init_state(run, rng)
            rows = []
            for _ in range(int(round(cfg.t_end / cfg.dt))):
                queried = sum(model.size > 0 for model in state.models)
                counts.update(kernel=0, solve=0)
                info = step(state, run, rng)
                grown = sum(state.models[ev.agent].size > 1 for ev in info.events)
                rows.append((counts["kernel"], counts["solve"], queried, len(info.events), grown))
            return rows, state

        reused, reused_state = steps()
        monkeypatch.setattr(GpModel, "add_point", forgetting_add_point)
        recomputed, recomputed_state = steps()
        assert sum(row[3] for row in reused) >= 8
        for (k, s, *events), (k_old, s_old, *events_old) in zip(reused, recomputed):
            queried, fired, grown = events
            assert events == events_old
            assert (k, s) == (queried, queried + 2 * fired)
            assert (k_old, s_old) == (k + grown, s + grown)
        assert reused_state.x.tobytes() == recomputed_state.x.tobytes()
        for model, old in zip(reused_state.models, recomputed_state.models):
            assert chol(model).tobytes() == chol(old).tobytes()

    def test_offline_unlogged_step_is_one_kernel_block(self, monkeypatch):
        # four agents on one factor: one N x M kernel block, no solve, and
        # the input of the step that queries every posterior
        run = prepare_run(case_preset("c"))
        counts = count_kernels_and_solves(monkeypatch)
        infos = []
        for need in (True, False):
            state = init_state(run, SplitMix64(3))
            counts.update(kernel=0, solve=0)
            infos.append(step(state, run, SplitMix64(3), need_eta=need))
        # the counts of the unlogged step
        assert counts == {"kernel": 1, "solve": 0}
        assert infos[0].u.tobytes() == infos[1].u.tobytes()

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


def peak_bytes(fn) -> int:
    """The tracemalloc peak of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_grid_solves(monkeypatch, counts):
    """Count ``posterior_grid`` calls into counts: a probe of at most
    ``gp._PROBE_POINTS`` points as "probe", a full-grid solve as "grid"."""
    posterior_grid = GpModel.posterior_grid

    def counting(self, xs, **kwargs):
        counts["probe" if len(xs) <= gp._PROBE_POINTS else "grid"] += 1
        return posterior_grid(self, xs, **kwargs)

    monkeypatch.setattr(GpModel, "posterior_grid", counting)


class TestPosteriorQueries:
    """sigma is computed only where a trigger, a logged row, an event or a
    gamma check that may pass reads it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"posterior": 0, "grid": 0, "probe": 0}
        posterior = GpModel.posterior

        def counting(self, x, *args):
            counts["posterior"] += 1
            return posterior(self, x, *args)

        monkeypatch.setattr(GpModel, "posterior", counting)
        count_grid_solves(monkeypatch, counts)
        return counts

    def test_offline_queries_sigma_on_logged_rows_only(self, calls):
        cfg = dataclasses.replace(case_preset("c"), t_end=0.1)
        traj, summary = run_episode(cfg)
        n_logged = traj.t.size - 1
        assert n_logged == 10
        assert calls["posterior"] == cfg.n_agents * (n_logged + 1)
        # the check passes, so the probe cannot decide it; the agents share
        # one factor, so one grid solve serves all four
        assert summary.gamma_ok
        assert (calls["probe"], calls["grid"]) == (1, 1)

    def test_online_queries_once_per_agent_step(self, calls):
        # an event takes its post-update posterior from the update itself
        cfg = dataclasses.replace(case_preset("d"), t_end=0.1)
        traj, summary = run_episode(cfg)
        assert summary.events
        n_steps = 100
        assert calls["posterior"] == cfg.n_agents * (n_steps + 1)
        # agent 1's probe already proves the gamma condition broken
        assert not summary.gamma_ok
        assert (calls["probe"], calls["grid"]) == (1, 0)

    def test_dense_offline_failure_skips_the_grid_solve(self, calls):
        # the offline-dense benchmark's 1000-point dataset: lip_f + lip_mu
        # alone break the condition, so sigma is solved at the probes only
        cfg = dataclasses.replace(case_preset("c"), t_end=0.1, offline_dataset_size=1000)
        _, summary = run_episode(cfg)
        assert not summary.gamma_ok
        assert (calls["probe"], calls["grid"]) == (1, 0)


class TestGammaCheck:
    """End-of-run gamma check: one grid kernel matrix and one sigma solve
    per run of models on one factor, failures proven from probes where
    they can be, stop at the first failure."""

    KERNEL = KernelParams(sigma_f=1.0, length_scale=0.3)
    NOISE = 0.05

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"grid": 0, "probe": 0, "kernel_matrix": 0}
        kernel = engine._kernel

        def counting_kernel(*args):
            counts["kernel_matrix"] += 1
            return kernel(*args)

        count_grid_solves(monkeypatch, counts)
        monkeypatch.setattr(engine, "_kernel", counting_kernel)
        return counts

    @pytest.fixture
    def run_and_grid(self):
        run = prepare_run(case_preset("c"))
        return run, domain_grid(run.plant.domain_lo, run.plant.domain_hi, LIP_GRID_STEP)

    def model(self, n, amplitude=0.0):
        xs = np.linspace(-1.5, 1.5, n)
        return GpModel.from_data(self.KERNEL, self.NOISE, xs, amplitude * (-1.0) ** np.arange(n))

    def test_shared_factor_only_agent_2_mean_breaks_gamma(self, calls, run_and_grid):
        run, grid = run_and_grid
        base = self.model(7)
        models = [
            base,
            base.with_outputs(100.0 * (-1.0) ** np.arange(7)),  # steep mean, same sigma
            base.with_outputs(np.zeros(7)),
            base.with_outputs(np.ones(7)),
        ]
        verdicts = [gamma_ok_every_model(run.bound, [m], grid) for m in models]
        assert verdicts == [True, False, True, True]
        # agent 1 passes, so it solves the grid after its probe; agent 2
        # reuses that sigma without a probe
        calls.update(grid=0, probe=0, kernel_matrix=0)
        assert engine._check_gamma(run, models, grid) is False
        assert calls == {"grid": 1, "probe": 1, "kernel_matrix": 1}
        assert engine._check_gamma(run, models[:1] + models[2:], grid) is True
        assert calls == {"grid": 2, "probe": 2, "kernel_matrix": 2}

    def test_distinct_factors_agent_1_passes_agent_3_fails(self, calls, run_and_grid):
        run, grid = run_and_grid
        models = [self.model(3), self.model(5), self.model(7, amplitude=100.0), self.model(15)]
        verdicts = [gamma_ok_every_model(run.bound, [m], grid) for m in models]
        assert verdicts == [True, True, False, True]
        # agent 3's steep mean fails on its probe alone
        calls.update(grid=0, probe=0, kernel_matrix=0)
        assert engine._check_gamma(run, models, grid) is False
        assert calls == {"grid": 2, "probe": 3, "kernel_matrix": 3}
        assert engine._check_gamma(run, models[:2] + models[3:], grid) is True
        assert calls == {"grid": 5, "probe": 6, "kernel_matrix": 6}

    def test_empty_models_take_the_full_path(self, calls, run_and_grid):
        run, grid = run_and_grid
        models = [GpModel(self.KERNEL, self.NOISE) for _ in range(3)]
        assert gamma_ok_every_model(run.bound, models, grid) is True
        # no inputs to probe near; separate models hold separate factors,
        # so each takes its own solve-free sigma
        calls.update(grid=0, probe=0)
        assert engine._check_gamma(run, models, grid) is True
        assert (calls["probe"], calls["grid"]) == (0, 3)

    def test_near_tie_declines_the_shortcut(self, calls, run_and_grid):
        # lip_f puts gamma's lower bound between the probe's sigma and its
        # margin: without the margin the probe would decide, with it the
        # full solve does
        run, grid = run_and_grid
        model = self.model(15)  # flat targets: lip_mu = 0
        kq = gp._kernel(model.kernel, model.inputs, grid)
        assert gp.estimate_lipschitz(grid, gp._grid_mean(model, kq)) == 0.0
        upper = gp._sigma_upper(model, grid, kq)
        cols = gp._probe_columns(model, grid)
        probe_min = float(model.posterior_grid(grid[cols])[1].min())
        assert probe_min < upper
        lip_f = run.root_beta * (probe_min + upper) / 2.0 / run.bound.tau
        tied = dataclasses.replace(run, bound=dataclasses.replace(run.bound, lip_f=lip_f))
        gamma_lo = lip_f * tied.bound.tau
        assert run.root_beta * probe_min < gamma_lo <= run.root_beta * upper
        calls.update(grid=0, probe=0)
        assert engine._check_gamma(tied, [model], grid) is False
        assert (calls["probe"], calls["grid"]) == (1, 1)
        assert gamma_ok_every_model(tied.bound, [model], grid) is False

    def test_proven_failure_checks_gamma_once_without_sigma_slope(
        self, monkeypatch, calls, run_and_grid
    ):
        run, grid = run_and_grid
        model = self.model(7, amplitude=100.0)
        kq = gp._kernel(model.kernel, model.inputs, grid)
        lip_mu = gp.estimate_lipschitz(grid, gp._grid_mean(model, kq))
        upper = gp._sigma_upper(model, grid, kq)
        seen = []
        check = engine.check_gamma_condition

        def recording(*args):
            seen.append(args)
            return check(*args)

        monkeypatch.setattr(engine, "check_gamma_condition", recording)
        calls.update(grid=0, probe=0)
        assert engine._check_gamma(run, [model], grid) is False
        assert seen == [(run.bound, lip_mu, 0.0, upper)]
        assert (calls["probe"], calls["grid"]) == (1, 0)

    def test_proven_dense_failure_holds_one_kernel_matrix(self, calls):
        # the offline-dense benchmark's 1000-point factor, shared by four
        # agents: the check peaks at its one in-place kernel matrix
        cfg = dataclasses.replace(case_preset("c"), offline_dataset_size=1000)
        run = prepare_run(cfg)
        models = init_state(run, SplitMix64(0)).models
        grid = domain_grid(run.plant.domain_lo, run.plant.domain_hi, LIP_GRID_STEP)
        calls.update(grid=0, probe=0)
        verdicts = []
        peak = peak_bytes(lambda: verdicts.append(engine._check_gamma(run, models, grid)))
        assert verdicts == [False]
        assert (calls["probe"], calls["grid"]) == (1, 0)
        assert peak <= 1.1 * 1000 * grid.size * 8

    def test_negative_probe_variance_raises(self, calls, run_and_grid):
        # shrinking the factor inflates L^-1 k, so sigma_f^2 - |L^-1 k|^2
        # falls far below -NEG_VAR_TOL near the data
        run, grid = run_and_grid
        model = self.model(15)
        model._chol *= 0.9
        with pytest.raises(NumericalBreakdown, match="posterior variance"):
            engine._check_gamma(run, [model], grid)
        assert (calls["probe"], calls["grid"]) == (1, 0)

    def test_grid_posteriors_equal_per_model_queries(self, monkeypatch, run_and_grid):
        run, grid = run_and_grid
        # flat-ish targets and no lip_f: every model passes, so all are checked
        run = dataclasses.replace(run, bound=dataclasses.replace(run.bound, lip_f=0.0))
        base = self.model(9, amplitude=0.01)
        shared = [base] + [base.with_outputs(np.full(9, v)) for v in (0.003, -0.02, 0.07)]
        distinct = [self.model(n, amplitude=0.01) for n in (3, 5, 7, 15)]
        seen = []
        estimate_lipschitz = engine.estimate_lipschitz

        def recording(grid, values):
            seen.append(values)
            return estimate_lipschitz(grid, values)

        monkeypatch.setattr(engine, "estimate_lipschitz", recording)
        for models in (shared, distinct, [GpModel(self.KERNEL, self.NOISE)] + distinct[:2]):
            seen.clear()
            assert engine._check_gamma(run, models, grid) is True
            # each model's mean, then its factor's sigma where the factor is new
            want = []
            for i, model in enumerate(models):
                want_mu, want_sigma = model.posterior_grid(grid)
                assert np.array_equal(want_mu, mean_grid(model, grid))
                want.append(want_mu)
                if i == 0 or not model.same_factor(models[i - 1]):
                    want.append(want_sigma)
            assert len(seen) == len(want)
            for got, values in zip(seen, want):
                assert np.array_equal(got, values)

    def test_grid_posteriors_hold_one_kernel_matrix(self, monkeypatch, run_and_grid):
        # models on distinct inputs: the previous matrix is dropped before the
        # next is built, so the check peaks like one posterior_grid (1.34x if
        # the old matrix stays alive)
        run, grid = run_and_grid
        run = dataclasses.replace(run, bound=dataclasses.replace(run.bound, lip_f=0.0))
        models = [self.model(n) for n in (300, 301, 302, 303)]
        single = peak_bytes(lambda: models[-1].posterior_grid(grid))
        seen = []
        estimate_lipschitz = engine.estimate_lipschitz

        def counting(*args):
            seen.append(1)
            return estimate_lipschitz(*args)

        monkeypatch.setattr(engine, "estimate_lipschitz", counting)
        checked = peak_bytes(lambda: engine._check_gamma(run, models, grid))
        assert len(seen) == 2 * len(models)  # every model's mean and full-solve sigma
        assert checked <= 1.1 * single

    def test_episodes_match_every_model_oracle(self, monkeypatch):
        checked = []
        original = engine._check_gamma

        def recording(run, models, grid):
            ok = original(run, models, grid)
            checked.append((ok, gamma_ok_every_model(run.bound, models, grid)))
            return ok

        monkeypatch.setattr(engine, "_check_gamma", recording)
        verdicts = set()
        for case_id in ("a", "b", "c", "d"):
            for seed in range(3):
                cfg = dataclasses.replace(case_preset(case_id), seed=seed, t_end=0.2)
                _, summary = run_episode(cfg)
                assert checked[-1] == (summary.gamma_ok, summary.gamma_ok)
                verdicts.add(summary.gamma_ok)
        assert len(checked) == 12
        assert verdicts == {True, False}


class TestInitState:
    def test_offline_agents_share_one_factor(self, monkeypatch):
        from_data = GpModel.from_data.__func__
        built = []

        def counting(cls, *args, **kwargs):
            built.append(args)
            return from_data(cls, *args, **kwargs)

        monkeypatch.setattr(GpModel, "from_data", classmethod(counting))
        run = prepare_run(case_preset("c"))
        cfg = run.config
        state = init_state(run, SplitMix64(5))
        assert len(built) == 1
        # each agent built on its own from the same draws, in agent order
        rng = SplitMix64(5)
        first = state.models[0]
        for i, model in enumerate(state.models):
            xs, ys = make_offline_dataset(run.plant, cfg.offline_dataset_size, cfg.sigma_n, rng)
            own = from_data(GpModel, run.kernel, cfg.sigma_n, xs, ys, max_points=cfg.max_points)
            assert model.same_factor(first)
            assert np.array_equal(chol(model), chol(own))
            assert np.array_equal(model.outputs, own.outputs)
            for q in (-1.2, 0.05, 0.8):
                assert model.posterior(q) == own.posterior(q)
            # one factor by reference, read-only; targets and weights own
            assert np.shares_memory(model._chol, first._chol)
            assert np.shares_memory(model._x, first._x)
            assert not (model._chol.flags.writeable or model._x.flags.writeable)
            if i:
                assert not np.shares_memory(model._y, first._y)
                assert not np.shares_memory(model._alpha, first._alpha)

    # 10 points leave the buffer room, 64 fill it; 150 points keep sigma
    # under the trigger threshold, so no agent updates and all stay shared
    @pytest.mark.parametrize("size, fires", [(10, True), (64, True), (150, False)])
    def test_online_agents_copy_offline_data_on_first_update(self, monkeypatch, size, fires):
        # online learning on top of an offline dataset: each agent's first
        # add_point copies the shared buffers, and every agent has the bits
        # of one that built its own model
        cfg = dataclasses.replace(case_preset("d"), t_end=0.5, offline_dataset_size=size)
        run = prepare_run(cfg)
        rng = SplitMix64(cfg.seed)
        state = init_state(run, rng)
        updated = set()
        for _ in range(int(round(cfg.t_end / cfg.dt))):
            info = step(state, run, rng)
            updated.update(ev.agent for ev in info.events)
            for i, model in enumerate(state.models):
                for j, other in enumerate(state.models[:i]):
                    apart = i in updated or j in updated
                    assert np.shares_memory(model._chol, other._chol) is not apart
        assert updated == ({0, 1, 2, 3} if fires else set())

        traj, summary = run_episode(cfg)

        def own_model(model, outputs):
            return GpModel.from_data(
                model.kernel, model.noise_std, model.inputs, outputs,
                max_points=model.max_points,
            )

        monkeypatch.setattr(GpModel, "with_outputs", own_model)
        own_traj, own_summary = run_episode(cfg)
        assert bool(summary.events) is fires
        assert summary == own_summary
        for name in ("x", "x_bar", "u", "rho", "eta", "fired", "dataset_size", "err"):
            assert getattr(traj, name).tobytes() == getattr(own_traj, name).tobytes()

    def test_online_agents_start_empty_and_separate(self):
        run = prepare_run(case_preset("d"))
        models = init_state(run, SplitMix64(0)).models
        assert [m.size for m in models] == [0, 0, 0, 0]
        assert len({id(m) for m in models}) == 4


class TestOfflineFactorMemo:
    """One offline factor and its grid facts per process and key."""

    @staticmethod
    def factor(**change):
        return engine._offline_factor(prepare_run(dataclasses.replace(case_preset("c"), **change)))

    def test_cases_a_and_c_and_their_seeds_share_one_factor(self):
        chols = []
        for case_id, seed in (("a", 0), ("c", 0), ("c", 1)):
            run = prepare_run(dataclasses.replace(case_preset(case_id), seed=seed))
            chols.extend(model._chol for model in init_state(run, SplitMix64(seed)).models)
        assert len(chols) == 12
        assert all(c is chols[0] for c in chols)
        assert engine._offline_factor_memo.cache_info().currsize == 1
        # the plant is no part of the key, its domain is
        assert self.factor(plant="affine", plant_params=(("f_offset", 0.5), ("f_slope", 2.0))) is (
            self.factor()
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"length_scale": 0.06},
            {"sigma_f": 1.1},
            {"sigma_n": 0.02},
            {"offline_dataset_size": 149},
            {"max_points": 999},
            {"plant": "affine", "plant_params": (("f_offset", 0.5), ("f_slope", 2.0), ("domain_lo", -1.4))},
        ],
    )
    def test_every_key_field_gives_its_own_factor(self, change):
        stock = self.factor()
        other = self.factor(**change)
        assert other.model._chol is not stock.model._chol
        assert self.factor() is stock and self.factor(**change) is other
        run = prepare_run(dataclasses.replace(case_preset("c"), **change))
        xs = np.linspace(run.plant.domain_lo, run.plant.domain_hi, run.config.offline_dataset_size)
        assert np.array_equal(other.model.inputs, xs)

    def test_no_offline_data_no_factor(self):
        assert engine._offline_factor(prepare_run(case_preset("d"))) is None
        assert engine._offline_factor_memo.cache_info().currsize == 0

    def test_second_episode_builds_nothing_and_repeats_its_bits(self, monkeypatch):
        cfg = dataclasses.replace(case_preset("c"), t_end=0.1)
        traj, summary = run_episode(cfg)
        counts = {"from_data": 0, "kernel_matrix": 0, "grid": 0, "probe": 0}
        from_data, kernel = GpModel.from_data.__func__, engine._kernel

        def counting_from_data(cls, *args, **kwargs):
            counts["from_data"] += 1
            return from_data(cls, *args, **kwargs)

        def counting_kernel(*args):
            counts["kernel_matrix"] += 1
            return kernel(*args)

        monkeypatch.setattr(GpModel, "from_data", classmethod(counting_from_data))
        monkeypatch.setattr(engine, "_kernel", counting_kernel)
        count_grid_solves(monkeypatch, counts)
        again, again_summary = run_episode(cfg)
        assert counts == {"from_data": 0, "kernel_matrix": 0, "grid": 0, "probe": 0}
        assert again_summary == summary and summary.gamma_ok
        for name in ("t", "x", "x_bar", "u", "rho", "eta", "fired", "dataset_size", "err"):
            assert getattr(again, name).tobytes() == getattr(traj, name).tobytes()

    def test_online_updates_leave_the_memo_factor_unchanged(self):
        # online agents on 64 offline points fire and copy the shared
        # buffers first; the memo keeps the bits it was built with
        cfg = dataclasses.replace(case_preset("d"), t_end=0.5, offline_dataset_size=64)
        base = engine._offline_factor(prepare_run(cfg)).model
        x0, chol0 = base._x.tobytes(), base._chol.tobytes()
        traj, summary = run_episode(cfg)
        assert summary.events and max(summary.max_dataset_size) > 64
        again, again_summary = run_episode(cfg)
        assert engine._offline_factor(prepare_run(cfg)).model is base
        assert (base._x.tobytes(), base._chol.tobytes()) == (x0, chol0)
        assert again_summary == summary
        for name in ("t", "x", "x_bar", "u", "rho", "eta", "fired", "dataset_size", "err"):
            assert getattr(again, name).tobytes() == getattr(traj, name).tobytes()

    def test_memo_keeps_the_four_latest_factors(self):
        factors = [self.factor(offline_dataset_size=n) for n in (10, 11, 12, 13, 14)]
        info = engine._offline_factor_memo.cache_info()
        assert (info.maxsize, info.currsize) == (4, 4)
        assert self.factor(offline_dataset_size=14) is factors[4]
        assert self.factor(offline_dataset_size=11) is factors[1]
        # 10 was dropped; building it again drops 12, now the oldest
        assert self.factor(offline_dataset_size=10) is not factors[0]
        assert self.factor(offline_dataset_size=13) is factors[3]
        assert self.factor(offline_dataset_size=12) is not factors[2]
        assert engine._offline_factor_memo.cache_info().currsize == 4

    def test_validate_builds_no_factor(self, capsys):
        assert main(["validate", "--case", "c"]) == 0
        capsys.readouterr()
        assert engine._offline_factor_memo.cache_info().currsize == 0

    def test_sweep_probe_builds_the_factor_in_the_parent(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(engine, "_mc_worker", no_run)
        with pytest.raises(AssertionError, match="a run started"):
            run_monte_carlo(case_preset("a"), 2, ("a", "b", "c", "d"))
        assert engine._offline_factor_memo.cache_info().currsize == 1
        assert self.factor().model.size == 150


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

    @pytest.mark.parametrize("case_id", ["b", "d"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_finite_difference_residual_near_measurement_noise(self, case_id, seed):
        # the error bound assumes zero-mean noise of std sigma_n on the
        # targets; differencing the states adds a small bias (0.04-0.09
        # sigma_n measured over about 580 events per episode)
        cfg = dataclasses.replace(
            case_preset(case_id), measurement_mode="finite_difference", seed=seed, t_end=10.0
        )
        plant = prepare_run(cfg).plant
        _, summary = run_episode(cfg)
        residual = np.array([ev.y - plant.f_true(ev.x) for ev in summary.events])
        assert residual.size > 500
        assert abs(residual.mean()) <= 0.15 * cfg.sigma_n
        assert 0.9 * cfg.sigma_n <= residual.std() <= 1.15 * cfg.sigma_n

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
        # c dt times the ring's largest Laplacian eigenvalue is 8, far past
        # RK4's stability limit of 2.79, so every run of either case leaves
        # the domain within a few steps
        mc = run_monte_carlo(self.base(c=2000.0), 1, ("a", "d"))
        assert all(r.failed for r in mc.records)
        for rec in mc.records:
            assert "outside [-1.5, 1.5]" in rec.message
            assert f"case={rec.case}" in rec.message
            assert math.isnan(rec.final_error) and rec.trigger_counts == ()
        assert np.all(np.isnan(mc.errors["a"])) and np.all(np.isnan(mc.errors["d"]))

    @pytest.fixture
    def no_runs(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started on a rejected sweep")

        monkeypatch.setattr(engine, "_mc_worker", no_run)

    @pytest.mark.parametrize("cases", [("a", "d"), ("d", "a")])
    def test_case_config_error_raises_before_any_run(self, no_runs, cases):
        # case a's 150-point offline grid exceeds max_points; case d has none
        with pytest.raises(ConfigError, match="exceeds max_points 100"):
            run_monte_carlo(self.base(max_points=100), 1, cases)

    def test_rejects_empty_case_list(self, no_runs):
        with pytest.raises(ConfigError, match="cases lists no case"):
            run_monte_carlo(self.base(), 1, ())

    def test_rejects_runs_below_one(self, no_runs):
        with pytest.raises(ConfigError, match="runs must be >= 1, got 0"):
            run_monte_carlo(self.base(), 0, ("a",))

    def test_records_follow_listed_case_order(self):
        mc = run_monte_carlo(self.base(t_end=0.02), 2, ("d", "a"), jobs=2)
        assert [(r.case, r.run) for r in mc.records] == [("d", 0), ("d", 1), ("a", 0), ("a", 1)]

    def test_error_series_shape(self):
        mc = run_monte_carlo(self.base(), 2, ("d",))
        rows = int(round(0.2 / 1e-3 / 10)) + 1
        assert mc.errors["d"].shape == (2, rows)
        assert not np.any(np.isnan(mc.errors["d"]))
        assert mc.times[0] == 0.0
        assert abs(mc.times[-1] - 0.2) <= 1e-12

    def test_rejects_jobs_below_one(self):
        for jobs in (0, -3):
            with pytest.raises(ConfigError, match="jobs must be >= 1"):
                run_monte_carlo(self.base(), 1, ("a",), jobs=jobs)

    def test_rejects_repeated_case(self):
        with pytest.raises(ConfigError, match="cases lists a case more than once"):
            run_monte_carlo(self.base(), 1, ("a", "d", "a"))

    def test_workers_capped_at_task_count(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Stands in for the process pool: records its size, maps in-process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
        base = self.base(t_end=0.01)
        run_monte_carlo(base, 1, ("d",), jobs=64)
        assert sizes == []  # one task runs in this process
        run_monte_carlo(base, 1, ("b", "d"), jobs=64)
        assert sizes == [2]
        run_monte_carlo(base, 2, ("b", "d"), jobs=3)
        assert sizes == [2, 3]

    def test_aux_diagnostics_populated(self):
        mc = run_monte_carlo(self.base(), 2, ("c",))
        for rec in mc.records:
            assert rec.aux_mean_drift <= 1e-8
            assert math.isfinite(rec.aux_final_gap)

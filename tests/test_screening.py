"""Trigger screening: an online query skips its sigma solve only where a
certified upper bound on sigma already keeps its trigger silent.

Every decision must equal the unscreened one at any BLAS thread count, so
the continuous-integration workflow runs this file once more with two
OpenBLAS threads.
"""

import copy
import dataclasses
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from gpconsensus import engine, gp
from gpconsensus.engine import init_state, prepare_run, run_episode, step
from gpconsensus.errors import OutOfDomain
from gpconsensus.gp import GpModel, KernelParams, _kernel
from gpconsensus.presets import case_preset
from gpconsensus.rng import SplitMix64

SCREEN_SETTINGS = settings(max_examples=24, deadline=None, derandomize=True, database=None)

# |sigma_after^2 - sigma^2| of the closed form against a fresh query, in
# units of (m + 1) u sigma_f^2 at m points; 0.25 was the largest seen
SIGMA_AFTER_VAR_TOL = 2.0


def walk_model(length_scale, sigma_n, m, seed, jitter_every=0):
    """A model grown along a random walk, as an agent's path grows it.

    With jitter_every > 0, every so many pivots take the largest jitter of
    the ladder, as ``add_point`` adds it to a pivot that fails.
    """
    model = GpModel(KernelParams(1.0, length_scale), sigma_n)
    rng = SplitMix64(seed)
    x = rng.uniform(-0.5, 0.5)
    for i in range(m):
        x = min(1.5, max(-1.5, x + rng.normal(0.0, 0.2 * length_scale)))
        model.add_point(x, rng.normal())
        if jitter_every and i % jitter_every == 0:
            j = model.size - 1
            model._chol[j, j] = math.sqrt(model._chol[j, j] ** 2 + gp.JITTER_LADDER[-1])
            model._refresh_alpha()
    return model, x, rng


def full_sigma(model, x):
    """The sd a full solve gives at x, on a copy, leaving model untouched."""
    return copy.deepcopy(model).posterior(x)[1]


def online_config(length_scale, sigma_n, learning, seed, t_end, **fields):
    return dataclasses.replace(
        case_preset("d"),
        length_scale=length_scale,
        sigma_n=sigma_n,
        learning=learning,
        seed=seed,
        initial_states=None,
        t_end=t_end,
        **fields,
    )


LEARNING = st.sampled_from(["online_proposed", "online_naive", "online_relaxed"])


@SCREEN_SETTINGS
@given(
    length_scale=st.sampled_from([0.02, 0.05]),
    sigma_n=st.sampled_from([0.01, 0.02]),
    learning=LEARNING,
    seed=st.integers(0, 2**31 - 1),
    gate=st.sampled_from([0, 40]),
    # the compensated law keeps x near x_bar, where all three thresholds
    # are eta_bar; the conventional one at c = 10 sets them apart
    law=st.sampled_from([("proposed", 1.0), ("conventional", 10.0)]),
)
def test_screened_steps_decide_as_unscreened(length_scale, sigma_n, learning, seed, gate, law):
    # screened: unlogged steps screen every model from `gate` points on;
    # unscreened: every step is a logged one, with a full solve per agent
    controller, c = law
    cfg = online_config(
        length_scale, sigma_n, learning, seed, t_end=0.4, controller=controller, c=c
    )
    recorded = []
    query = engine._query_triggers

    def recording(*args, **kwargs):
        mu, eta, rho = query(*args, **kwargs)
        recorded.append(mu)  # events write their post-update means in place
        return mu, eta, rho

    def steps(screened):
        recorded.clear()
        run = prepare_run(cfg)
        rng = SplitMix64(cfg.seed)
        state = init_state(run, rng)
        rows = []
        for k in range(int(round(cfg.t_end / cfg.dt))):
            need_eta = not screened or k % cfg.log_stride == 0
            try:
                info = step(state, run, rng, need_eta=need_eta)
            except OutOfDomain as exc:  # the high-gain law can leave the domain
                rows.append(str(exc))
                break
            rows.append(
                (info.fired.tobytes(), info.events, info.u.tobytes(), state.x.tobytes())
            )
        return rows, [mu.tobytes() for mu in recorded]

    with mock.patch.object(engine, "_query_triggers", recording):
        with mock.patch.object(gp, "_SCREEN_POINTS", gate):
            screened = steps(True)
        unscreened = steps(False)
    assert screened == unscreened


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(learning=LEARNING, seed=st.integers(0, 2**31 - 1))
def test_screened_episode_has_the_unscreened_bytes(learning, seed):
    # past the real gate (about 200 points per agent at l = 0.02 by t = 3)
    cfg = online_config(0.02, 0.01, learning, seed, t_end=3.0)
    traj, summary = run_episode(cfg)
    with mock.patch.object(gp, "_SCREEN_POINTS", 10**9):
        want_traj, want_summary = run_episode(cfg)
    assert max(summary.max_dataset_size) >= gp._SCREEN_POINTS
    for name, value in vars(traj).items():
        assert value.tobytes() == getattr(want_traj, name).tobytes(), name
    assert summary == want_summary


class TestBounds:
    """Each certified bound is at or above the sd a full solve then gives."""

    CASES = [
        # (length scale, sigma_n, points, jitter every)
        (0.05, 0.01, 250, 0),
        (0.02, 0.01, 300, 0),
        (0.02, 0.02, 220, 0),
        (0.05, 0.01, 250, 7),
    ]

    def queries(self, model, x, rng, n=60):
        """Points near the walk's end and the data, and some far away."""
        inputs = model.inputs
        near = [x + rng.normal(0.0, model.kernel.length_scale) for _ in range(n)]
        data = [
            inputs[int(rng.uniform(0.0, inputs.size))] + rng.normal(0.0, 1e-3) for _ in range(n)
        ]
        return near + data + [-1.4, 0.0, 1.4]

    def test_window_bound(self):
        for ell, sigma_n, m, jitter in self.CASES:
            model, x, rng = walk_model(ell, sigma_n, m, 7200 + m, jitter)
            model._window = model._build_window()
            for q in self.queries(model, x, rng):
                k = _kernel(model.kernel, model._x[: model.size], q)
                assert model._window_bound(q, k) >= full_sigma(model, q)

    def test_window_built_at_an_earlier_size(self):
        for ell, sigma_n, m, jitter in self.CASES:
            model, x, rng = walk_model(ell, sigma_n, m, 7300 + m, jitter)
            model._window = model._build_window()
            for _ in range(40):
                x = min(1.5, max(-1.5, x + rng.normal(0.0, 0.2 * ell)))
                model.add_point(x, rng.normal())
            assert model._window[0] == m
            for q in self.queries(model, x, rng):
                k = _kernel(model.kernel, model._x[: model.size], q)
                assert model._window_bound(q, k) >= full_sigma(model, q)

    def test_anchor_bound(self):
        # the anchor of the last update or solve, then the anchors the
        # window leaves, each extended by the Lipschitz slope
        for ell, sigma_n, m, jitter in self.CASES:
            model, x, rng = walk_model(ell, sigma_n, m, 7400 + m, jitter)
            screen = model._screen
            for q in self.queries(model, x, rng):
                x_a, s_a = model._anchor
                bound = screen.lift(s_a + screen.slope * abs(q - x_a))
                assert bound >= full_sigma(model, q)
            model._window = model._build_window()
            for q in self.queries(model, x, rng):
                k = _kernel(model.kernel, model._x[: model.size], q)
                model._window_bound(q, k)
                x_a, s_a = model._anchor
                q2 = q + rng.normal(0.0, 0.1 * ell)
                bound = screen.lift(s_a + screen.slope * abs(q2 - x_a))
                assert bound >= full_sigma(model, q2)

    def test_screened_query(self):
        # a skipped solve returns a bound that keeps scale * s at or below
        # the limit and at or above the full solve; the mean keeps its bits
        for ell, sigma_n, m, jitter in self.CASES:
            model, x, rng = walk_model(ell, sigma_n, m, 7500 + m, jitter)
            scale = 2.0 * math.sqrt(23.8)
            skipped = 0
            for q in self.queries(model, x, rng):
                sigma = full_sigma(model, q)
                limit = scale * sigma * rng.uniform(0.5, 3.0)
                want_mu = copy.deepcopy(model).posterior(q)[0]
                mu, s = model.posterior(q, (scale, limit))
                assert mu == want_mu
                if model._query[3] is None:
                    skipped += 1
                    assert scale * s <= limit
                    assert s >= sigma
                else:
                    assert s == sigma
            assert skipped > 0


def test_lipschitz_lemma_on_random_models():
    # |sigma(x) - sigma(x')| <= (sigma_f / l) |x - x'|, for data of any
    # shape; the anchors use it through the reference sd
    rng = SplitMix64(7600)
    for trial in range(12):
        ell = (0.02, 0.05, 0.3)[trial % 3]
        kernel = KernelParams(rng.uniform(0.5, 2.0), ell)
        model = GpModel(kernel, rng.uniform(0.005, 0.05), max_points=400)
        for _ in range(int(rng.uniform(1.0, 300.0))):
            model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
        slope = kernel.sigma_f / ell
        for _ in range(100):
            a = rng.uniform(-1.5, 1.5)
            b = a + rng.normal(0.0, ell)
            sa, sb = model.posterior(a)[1], model.posterior(b)[1]
            assert abs(sa - sb) <= slope * abs(a - b) + 1e-12
            screen = model._screen
            assert sb <= screen.lift(screen.lift(sa) + slope * abs(a - b))


class TestUpdatePosterior:
    def test_mean_bits_and_sigma_after(self):
        # add_point returns the post-update mean with the bits of a fresh
        # query, and an sd whose square is within SIGMA_AFTER_VAR_TOL
        # (m + 1) u sigma_f^2 of a fresh query's, with and without the query
        # before it, across the 64- and 128-point buffer regrowths
        rng = SplitMix64(7700)
        for ell, sigma_f in ((0.05, 1.0), (0.02, 1.0), (0.3, 2.3)):
            model = GpModel(KernelParams(sigma_f, ell), 0.01, max_points=300)
            for i in range(300):
                x, y = rng.uniform(-1.5, 1.5), rng.normal()
                if i % 3:
                    model.posterior(x)
                mu, sigma = model.add_point(x, y)
                want_mu, want_sigma = copy.deepcopy(model).posterior(x)
                assert mu == want_mu
                tol = SIGMA_AFTER_VAR_TOL * model.size * gp._UNIT_ROUNDOFF * sigma_f**2
                assert abs(sigma * sigma - want_sigma * want_sigma) <= tol


class TestGate:
    """A quiet model at or above the gate skips its solve on unlogged steps
    and solves on logged ones; below the gate it always solves."""

    def run_steps(self, monkeypatch, points):
        run = prepare_run(case_preset("d"))
        rng = SplitMix64(7800)
        state = init_state(run, rng)
        for model, x in zip(state.models, state.x.tolist()):
            for _ in range(points):
                xi = x + rng.uniform(-0.05, 0.05)
                model.add_point(xi, run.plant.f_true(xi) + rng.normal(0.0, 0.01))
        solves = []
        solve = GpModel._solve_lower

        def counting(self, b, transposed=False):
            solves[-1] += 1
            return solve(self, b, transposed)

        monkeypatch.setattr(GpModel, "_solve_lower", counting)
        for need_eta in (True, False, False, False, False, False, True):
            solves.append(0)
            info = step(state, run, rng, need_eta=need_eta)
            assert not info.events
        return solves

    def test_quiet_model_above_the_gate(self, monkeypatch):
        solves = self.run_steps(monkeypatch, gp._SCREEN_POINTS)
        assert solves == [4, 0, 0, 0, 0, 0, 4]

    def test_window_rebuilt_only_on_a_quiet_model(self, monkeypatch):
        # a limit of 0 is never met, so every screen falls through to the
        # window and then to the solve
        model, x, rng = walk_model(0.05, 0.01, gp._SCREEN_POINTS + 50, 7900)
        builds = []
        build = GpModel._build_window

        def counting(self):
            builds.append(self.size)
            return build(self)

        monkeypatch.setattr(GpModel, "_build_window", counting)
        model.posterior(x, (1.0, 0.0))  # the update just before: no build
        assert builds == []
        model.posterior(x, (1.0, 0.0))  # quiet since its query: one build
        model.posterior(x, (1.0, 0.0))  # its window already has every point
        assert builds == [model.size]
        model.add_point(x + 1e-3, rng.normal())
        model.posterior(x, (1.0, 0.0))  # grew: keeps the older window
        assert builds == [model.size - 1]
        model.posterior(x, (1.0, 0.0))  # quiet again and the window lacks a point
        assert builds == [model.size - 1, model.size]

    def test_below_the_gate(self, monkeypatch):
        solves = self.run_steps(monkeypatch, gp._SCREEN_POINTS - 1)
        assert solves == [4] * 7

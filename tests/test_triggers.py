"""Trigger rules: plug-in values, firing semantics, partition properties."""

import dataclasses
import math

import numpy as np
import pytest

from gpconsensus.engine import run_episode
from gpconsensus.errors import InvalidParam
from gpconsensus.gp import BoundContext, GpModel, KernelParams
from gpconsensus.presets import case_preset
from gpconsensus.rng import SplitMix64
from gpconsensus.triggers import evaluate_trigger, trigger_threshold
from oracles import classify_agent, error_bound, rho_naive, rho_proposed, rho_relaxed

ETA_BAR = 0.09764858224315007  # 2 sqrt(beta) sigma_n for the benchmark bound
EPSILON = 0.7811886579452005  # 2 N eta_bar / c with c=1, N=4
VAL_TOL = 1e-12


class TestRhoProposed:
    def test_floor_makes_boundary_silent(self):
        # max picks eta_bar, rho = 0, strict inequality does not fire
        for xt in (0.0, 0.05, 0.2):
            rho = rho_proposed(ETA_BAR, xt, 0.0, 1.0, 4, ETA_BAR)
            assert rho == pytest.approx(0.0, abs=VAL_TOL)
            threshold = trigger_threshold("proposed", xt, 0.0, 1.0, 4, ETA_BAR)
            assert not evaluate_trigger(ETA_BAR, threshold) > 0.0

    def test_small_disagreement_fires_on_loose_bound(self):
        rho = rho_proposed(0.2, 0.05, 0.0, 1.0, 4, ETA_BAR)
        assert rho == pytest.approx(0.10235141775684994, abs=VAL_TOL)
        assert rho > 0.0

    def test_large_disagreement_stays_silent(self):
        rho = rho_proposed(0.09, 0.5, 0.0, 1.0, 4, ETA_BAR)
        assert rho == pytest.approx(-0.240867694267796, abs=VAL_TOL)
        assert rho <= 0.0

    def test_single_agent_degenerate_form(self):
        rng = SplitMix64(801)
        for _ in range(200):
            eta = rng.uniform(0.0, 10.0)
            xt = rng.uniform(-2.0, 2.0)
            c = rng.uniform(0.1, 5.0)
            expected = eta - max(c * abs(xt), ETA_BAR)
            assert rho_proposed(eta, xt, 0.0, c, 1, ETA_BAR) == expected

    def test_depends_on_disagreement_not_position(self):
        a = rho_proposed(0.5, 1.25, 1.0, 1.0, 4, ETA_BAR)
        b = rho_proposed(0.5, -0.75, -1.0, 1.0, 4, ETA_BAR)
        assert a == b  # both have |x - x_bar| = 0.25 exactly

    def test_pure(self):
        args = (0.37, 0.8, 0.55, 1.3, 4, ETA_BAR)
        assert rho_proposed(*args) == rho_proposed(*args)


class TestRhoNaive:
    def test_boundary_silent(self):
        assert rho_naive(ETA_BAR, ETA_BAR) == 0.0

    def test_empty_model_bound_fires(self):
        rho = rho_naive(9.764858224315006, ETA_BAR)
        assert rho == pytest.approx(9.667209642071857, abs=VAL_TOL)
        assert rho > 0.0

    def test_zero_bound_silent(self):
        assert rho_naive(0.0, ETA_BAR) == -ETA_BAR


class TestRhoRelaxed:
    def test_within_band_boundary_silent(self):
        # |x - x_bar| <= epsilon / sqrt(N) collapses the max to 0
        for xt in (0.0, 0.1, EPSILON / 2.0):
            rho = rho_relaxed(ETA_BAR, xt, 0.0, 1.0, 4, ETA_BAR, EPSILON)
            assert rho == pytest.approx(0.0, abs=VAL_TOL)

    def test_outside_band_tight_bound_silent(self):
        rho = rho_relaxed(0.2, 0.5, 0.0, 1.0, 4, ETA_BAR, EPSILON)
        assert rho == pytest.approx(-0.007054253270549787, abs=VAL_TOL)
        assert rho <= 0.0

    def test_outside_band_loose_bound_fires(self):
        rho = rho_relaxed(0.25, 0.5, 0.0, 1.0, 4, ETA_BAR, EPSILON)
        assert rho == pytest.approx(0.0429457467294502, abs=VAL_TOL)
        assert rho > 0.0

    def test_not_identical_to_proposed(self):
        # the two rules genuinely disagree on some states
        eta, xt = 0.25, 0.5
        a = rho_proposed(eta, xt, 0.0, 1.0, 4, ETA_BAR) > 0.0
        b = rho_relaxed(eta, xt, 0.0, 1.0, 4, ETA_BAR, EPSILON) > 0.0
        assert (a, b) == (False, True)


class TestEvaluateTrigger:
    def test_fired_iff_rho_positive(self):
        # evaluate_trigger returns the rule's rho, per agent; an
        # agent fires exactly where that rho is positive
        rng = SplitMix64(802)
        states = [
            (rng.uniform(0.0, 10.0), rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            for _ in range(500)
        ]
        eta, x, xb = (np.array(col) for col in zip(*states))
        rules = {
            "proposed": lambda e, xi, xbi: rho_proposed(e, xi, xbi, 1.0, 4, ETA_BAR),
            "naive": lambda e, xi, xbi: rho_naive(e, ETA_BAR),
            "relaxed": lambda e, xi, xbi: rho_relaxed(e, xi, xbi, 1.0, 4, ETA_BAR, EPSILON),
        }
        for mode, rule in rules.items():
            threshold = trigger_threshold(mode, x, xb, 1.0, 4, ETA_BAR, EPSILON)
            rho = evaluate_trigger(eta, threshold)
            assert rho.shape == eta.shape
            assert rho.tolist() == [rule(*s) for s in states]
            assert np.array_equal(rho > 0.0, [rule(*s) > 0.0 for s in states])

    def test_relaxed_needs_epsilon(self):
        with pytest.raises(InvalidParam):
            trigger_threshold("relaxed", 0.1, 0.0, 1.0, 4, ETA_BAR)

    def test_unknown_mode(self):
        # offline learning evaluates no rule, so "none" is not one either
        for mode in ("eager", "none"):
            with pytest.raises(InvalidParam):
                trigger_threshold(mode, 0.1, 0.0, 1.0, 4, ETA_BAR)


class TestClassifyAgent:
    def test_zero_disagreement_is_s1(self):
        assert classify_agent(5.0, 0.3, 0.3, 1.0, 4, ETA_BAR) == "S1"

    def test_firing_small_disagreement_is_s1(self):
        # fires, but |x - x_bar| is below the S1 threshold 0.26678
        assert classify_agent(0.2, 0.05, 0.0, 1.0, 4, ETA_BAR) == "S1"

    def test_silent_large_disagreement_is_s3(self):
        assert classify_agent(0.09, 0.5, 0.0, 1.0, 4, ETA_BAR) == "S3"

    def test_firing_large_disagreement_is_s2(self):
        eta = 2.0  # loose bound, far from auxiliary state
        assert rho_proposed(eta, 0.5, 0.0, 1.0, 4, ETA_BAR) > 0.0
        assert classify_agent(eta, 0.5, 0.0, 1.0, 4, ETA_BAR) == "S2"


class TestPartitionProperties:
    """Fuzz the trigger + model-update pipeline over random local states."""

    KERNEL = KernelParams(sigma_f=1.0, length_scale=0.05)
    NOISE_STD = 0.01

    def make_ctx(self):
        return BoundContext(
            delta=0.01,
            tau=1e-3,
            domain_lo=-1.5,
            domain_hi=1.5,
            noise_std=self.NOISE_STD,
            lip_f=10.1,
        )

    def test_s1_post_decision_bound_at_floor(self):
        # in S1 the bound after the decision is at most eta_bar: silent
        # agents already satisfy it algebraically, firing agents reach it
        # through the variance contraction of the update
        ctx = self.make_ctx()
        eta_bar = ctx.eta_bar_lower
        threshold = (math.sqrt(3.0) + 1.0) * eta_bar
        rng = SplitMix64(803)
        checked = 0
        for _ in range(10_000):
            xt = rng.uniform(-threshold, threshold)  # c = 1: S1 region
            eta = rng.uniform(0.0, 10.0)
            x = rng.uniform(-1.5, 1.5)
            rho = evaluate_trigger(eta, trigger_threshold("proposed", x, x - xt, 1.0, 4, eta_bar))
            if rho > 0.0:
                model = GpModel(self.KERNEL, self.NOISE_STD, max_points=1)
                model.add_point(x, rng.normal())
                eta_hat = error_bound(model, ctx, x)
            else:
                eta_hat = eta
            assert eta_hat <= eta_bar + 1e-12
            checked += 1
        assert checked == 10_000

    def test_s3_disagreement_dominates_bound(self):
        # silent large-disagreement states satisfy
        # c^2 (x - x_bar)^2 >= eta^2 + (N-1) eta_bar^2
        ctx = self.make_ctx()
        eta_bar = ctx.eta_bar_lower
        threshold = (math.sqrt(3.0) + 1.0) * eta_bar
        rng = SplitMix64(804)
        hits = 0
        for _ in range(10_000):
            sign = 1.0 if rng.random() < 0.5 else -1.0
            xt = sign * rng.uniform(threshold * 1.0000001, 3.0)
            eta = rng.uniform(0.0, 3.0)
            rho = rho_proposed(eta, xt, 0.0, 1.0, 4, eta_bar)
            if rho > 0.0:
                continue
            assert xt * xt >= eta * eta + 3.0 * eta_bar**2 - 1e-12
            hits += 1
        assert hits > 1000  # the silent branch must actually be exercised


def test_rules_bitwise_reproducible():
    rng = SplitMix64(805)
    states = [
        (rng.uniform(0, 10), rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 3))
        for _ in range(100)
    ]
    first = [
        (
            rho_proposed(e, x, xb, c, 4, ETA_BAR),
            rho_naive(e, ETA_BAR),
            rho_relaxed(e, x, xb, c, 4, ETA_BAR, EPSILON),
        )
        for e, x, xb, c in states
    ]
    second = [
        (
            rho_proposed(e, x, xb, c, 4, ETA_BAR),
            rho_naive(e, ETA_BAR),
            rho_relaxed(e, x, xb, c, 4, ETA_BAR, EPSILON),
        )
        for e, x, xb, c in states
    ]
    assert first == second


class TestRulesInEpisodes:
    """Case d at seed 0 for 1 s under each rule: where the rules can differ."""

    def episode(self, learning, **fields):
        cfg = dataclasses.replace(case_preset("d"), t_end=1.0, learning=learning, **fields)
        return run_episode(cfg)

    def test_compensated_law_makes_every_rule_naive(self):
        # the compensated law keeps c|x - x_bar| below (1 + sqrt(N-1)) eta_bar
        # = 0.267, where the proposed threshold sits at its floor eta_bar and
        # the relaxed slack is 0, so all three rules take the same steps
        traj, summary = self.episode("online_naive")
        assert len(summary.events) == 498
        for learning in ("online_proposed", "online_relaxed"):
            other_traj, other = self.episode(learning)
            for name, value in vars(traj).items():
                assert value.tobytes() == getattr(other_traj, name).tobytes(), name
            assert other.events == summary.events

    def test_conventional_law_at_high_gain_sets_the_rules_apart(self):
        counts = [
            len(self.episode(learning, controller="conventional", c=10.0)[1].events)
            for learning in ("online_naive", "online_proposed", "online_relaxed")
        ]
        assert counts == [373, 83, 321]

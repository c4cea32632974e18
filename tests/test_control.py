"""Control laws: plug-in values, conservation, exact-model contraction."""

import math

import numpy as np
import pytest

from gpconsensus.control import (
    ControlGains,
    auxiliary_rate,
    check_domain_containment,
    control_conventional,
    control_proposed,
    epsilon_bound,
)
from gpconsensus.errors import InvalidParam, SingularGain
from gpconsensus.plants import PlantSpec, make_benchmark_plant
from gpconsensus.rng import SplitMix64
from gpconsensus.topology import build_topology
from oracles import laws_per_agent

VAL_TOL = 1e-12
GAINS = ControlGains(c=1.0, c_bar=1.0)
ETA_BAR = 0.09764858224315007


def star(x, x_bar, nx, nxb):
    """Agent 0 with one leaf per neighbor value: (topology, x, x_bar).

    Agent 0's neighbors are the leaves in the order given, so entry 0 of
    every law is the value for an agent that sees (nx, nxb).
    """
    k = len(nx)
    top = build_topology(k + 1, [(1, j + 2) for j in range(k)])
    return top, np.array([x, *nx], dtype=float), np.array([x_bar, *nxb], dtype=float)


def hub_f_hat(top, f_hat):
    """f_hat for agent 0, zero for the leaves."""
    out = np.zeros(top.n_agents)
    out[0] = f_hat
    return out


class TestAuxiliaryRate:
    def test_consensus_fixed_point(self):
        top, _, xb = star(0.0, 0.7, [1.0, -1.0], [0.7, 0.7])
        assert auxiliary_rate(xb, top, GAINS)[0] == 0.0

    def test_plug_in(self):
        top, _, xb = star(0.0, 1.0, [0.0, 0.0], [0.0, 0.0])
        assert auxiliary_rate(xb, top, GAINS)[0] == -2.0

    def test_rates_sum_to_zero_on_random_states(self):
        top = build_topology(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        rng = SplitMix64(1000)
        for _ in range(50):
            xb = np.array([rng.uniform(-2.0, 2.0) for _ in range(4)])
            total = sum(auxiliary_rate(xb, top, GAINS))
            assert total == pytest.approx(0.0, abs=1e-12)

    def test_gain_scaling(self):
        top, _, xb = star(0.0, 1.0, [0.0], [0.0])
        assert auxiliary_rate(xb, top, ControlGains(1.0, 2.5))[0] == -2.5


class TestConventionalLaw:
    def test_exact_cancellation_at_consensus(self):
        plant = make_benchmark_plant()
        rng = SplitMix64(1001)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5)
            f_true = plant.f_true(x)
            top, xs, _ = star(x, x, [x, x], [x, x])
            u = control_conventional(xs, np.full(3, f_true), top, plant, GAINS)[0]
            assert u == pytest.approx(-f_true, abs=VAL_TOL)
            # closed loop: xdot = f_true + u = 0
            assert plant.f_true(x) + plant.g(x) * u == pytest.approx(0.0, abs=VAL_TOL)

    def test_plug_in(self):
        plant = make_benchmark_plant()
        top, xs, _ = star(1.0, 0.0, [0.0], [0.0])
        assert control_conventional(xs, hub_f_hat(top, 0.0), top, plant, GAINS)[0] == -1.0

    def test_gain_division(self):
        plant = PlantSpec(
            h=lambda x: 0.5,
            g=lambda x: 2.0,
            f_true=lambda x: 0.0,
            domain_lo=-1.0,
            domain_hi=1.0,
        )
        top, xs, _ = star(1.0, 0.0, [0.0], [0.0])
        # u = -(0.5 + 0.3 + 1.0) / 2
        u = control_conventional(xs, hub_f_hat(top, 0.3), top, plant, GAINS)[0]
        assert u == pytest.approx(-0.9, abs=VAL_TOL)

    def test_singular_gain(self):
        plant = PlantSpec(
            h=lambda x: 0.0,
            g=lambda x: max(x, 0.001),
            f_true=lambda x: 0.0,
            domain_lo=0.5,
            domain_hi=1.5,
            g_min=0.01,
        )
        top, xs, _ = star(0.0, 0.0, [0.0], [0.0])
        with pytest.raises(SingularGain):
            control_conventional(xs, np.zeros(2), top, plant, GAINS)


class TestProposedLaw:
    def test_steady_state_cancels_model(self):
        plant = make_benchmark_plant()
        top, xs, xb = star(0.4, 0.4, [0.9, -0.2], [0.9, -0.2])
        f_hat = hub_f_hat(top, 5.37)
        u = control_proposed(xs, xb, f_hat, top, plant, GAINS, np.zeros(3))[0]
        assert u == pytest.approx(-5.37, abs=VAL_TOL)

    def test_plug_in(self):
        plant = make_benchmark_plant()
        # xt_i = 0.2, neighbor xt = 0: r = 0.2 + 0.2 = 0.4
        top, xs, xb = star(0.5, 0.3, [0.7], [0.7])
        u = control_proposed(xs, xb, np.zeros(2), top, plant, GAINS, np.zeros(2))[0]
        assert u == pytest.approx(-0.4, abs=VAL_TOL)

    def test_rate_feedthrough(self):
        plant = make_benchmark_plant()
        top, xs, xb = star(0.5, 0.3, [0.7], [0.7])
        f_hat = np.zeros(2)
        u0 = control_proposed(xs, xb, f_hat, top, plant, GAINS, np.zeros(2))[0]
        u1 = control_proposed(xs, xb, f_hat, top, plant, GAINS, np.full(2, 0.25))[0]
        assert u1 - u0 == pytest.approx(0.25, abs=VAL_TOL)

    def test_pure_replay_bit_exact(self):
        plant = make_benchmark_plant()
        rng = SplitMix64(1002)
        for _ in range(50):
            top, xs, xb = star(
                rng.uniform(-1.5, 1.5),
                rng.uniform(-1.5, 1.5),
                [rng.uniform(-1.5, 1.5) for _ in range(2)],
                [rng.uniform(-1.5, 1.5) for _ in range(2)],
            )
            f_hat = np.array([rng.normal() for _ in range(3)])
            rate = auxiliary_rate(xb, top, GAINS)
            u_prop = control_proposed(xs, xb, f_hat, top, plant, GAINS, rate)
            u_conv = control_conventional(xs, f_hat, top, plant, GAINS)
            assert np.array_equal(
                u_prop, control_proposed(xs, xb, f_hat, top, plant, GAINS, rate)
            )
            assert np.array_equal(
                u_conv, control_conventional(xs, f_hat, top, plant, GAINS)
            )
            # and equal, bit for bit, to the per-agent formulas
            ref = laws_per_agent(top, plant, GAINS.c, GAINS.c_bar, xs, xb, f_hat)
            assert rate.tolist() == ref[0]
            assert u_conv.tolist() == ref[1]
            assert u_prop.tolist() == ref[2]


class TestExactModelContraction:
    def test_disagreement_decays_at_gain_rate(self):
        # with f_hat = f_true the auxiliary-relative error obeys a linear
        # consensus ODE whose slowest mode contracts at exactly rate c
        plant = make_benchmark_plant()
        top = build_topology(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        c = 1.0
        gains = ControlGains(c=c, c_bar=1.0)
        x = np.array([0.8, -0.3, 0.5, -0.9])
        x_bar = np.array([0.5, 0.1, -0.2, 0.3])  # deliberately x_bar(0) != x(0)

        def rhs(state):
            xs, xbs = state[:4], state[4:]
            f = np.array([plant.f_true(v) for v in xs.tolist()])
            rate = auxiliary_rate(xbs, top, gains)
            u = control_proposed(xs, xbs, f, top, plant, gains, rate)
            return np.concatenate([f + u, rate])

        dt = 1e-3
        state = np.concatenate([x, x_bar])
        times, norms = [], []
        for k in range(2001):
            if k % 50 == 0:
                xt = state[:4] - state[4:]
                times.append(k * dt)
                norms.append(np.linalg.norm(xt))
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * dt * k1)
            k3 = rhs(state + 0.5 * dt * k2)
            k4 = rhs(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        times = np.array(times)
        norms = np.array(norms)
        assert norms[-1] < norms[0] * math.exp(-0.9 * c * times[-1])
        mask = norms > 1e-10
        slope = np.polyfit(times[mask], np.log(norms[mask]), 1)[0]
        assert slope <= -0.95 * c


class TestAccuracyBound:
    def test_plug_in(self):
        eps = epsilon_bound(GAINS, 4, ETA_BAR)
        assert eps == pytest.approx(0.7811886579452005, abs=VAL_TOL)

    def test_doubling_gain_halves_bound(self):
        eps1 = epsilon_bound(ControlGains(1.0, 1.0), 4, ETA_BAR)
        eps2 = epsilon_bound(ControlGains(2.0, 1.0), 4, ETA_BAR)
        assert eps2 == pytest.approx(eps1 / 2.0, abs=VAL_TOL)

    def test_single_agent(self):
        assert epsilon_bound(GAINS, 1, ETA_BAR) == pytest.approx(
            2.0 * ETA_BAR, abs=VAL_TOL
        )

    def test_invalid_args(self):
        with pytest.raises(InvalidParam):
            epsilon_bound(GAINS, 0, ETA_BAR)
        with pytest.raises(InvalidParam):
            epsilon_bound(GAINS, 4, 0.0)


class TestDomainContainment:
    def test_benchmark_band_fits(self):
        assert check_domain_containment(-1.5, 1.5, -0.285, 0.78119) is True

    def test_band_near_edge_fails(self):
        assert check_domain_containment(-1.5, 1.5, 1.4, 0.78) is False

    def test_zero_band(self):
        assert check_domain_containment(-1.5, 1.5, 0.0, 0.0) is True
        assert check_domain_containment(-1.5, 1.5, 1.5, 0.0) is True


class TestGains:
    def test_positive_required(self):
        with pytest.raises(InvalidParam):
            ControlGains(c=0.0, c_bar=1.0)
        with pytest.raises(InvalidParam):
            ControlGains(c=1.0, c_bar=-1.0)

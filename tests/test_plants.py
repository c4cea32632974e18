"""Plant dynamics, measurement identity, and built-in families."""

import math

import numpy as np
import pytest

from gpconsensus.errors import InvalidParam, SingularGain
from gpconsensus.plants import (
    PlantSpec,
    benchmark_f,
    drift,
    estimate_lip_f,
    make_affine_plant,
    make_appendix_plant,
    make_benchmark_plant,
    make_plant,
    make_sinusoidal_plant,
    measure,
)
from gpconsensus.rng import SplitMix64

F_TOL = 1e-12


def benchmark_f_reference(x):
    # separate expression tree from the library implementation
    return float(np.sin(np.multiply(x, 10.0)) + np.exp(np.multiply(x, 0.1)) / 2.0 + 5.0)


class TestBenchmarkF:
    def test_at_zero(self):
        assert benchmark_f(0.0) == 5.5

    def test_at_domain_edge(self):
        assert benchmark_f(1.5) == pytest.approx(6.231204961521258, abs=F_TOL)

    def test_matches_independent_expression(self):
        for x in np.linspace(-1.5, 1.5, 10_000):
            assert benchmark_f(float(x)) == pytest.approx(
                benchmark_f_reference(x), abs=F_TOL
            )

    def test_slope_bound_on_domain(self):
        lip = estimate_lip_f(benchmark_f, -1.5, 1.5, 1e-4)
        # analytic max of |10 cos(10x) + 0.05 exp(x/10)| is ~10.0567
        assert lip == pytest.approx(10.056694142119985, abs=1e-3)
        assert lip <= 10.06

    def test_default_scan_pinned(self):
        # the automatic lip_f of every stock case
        plant = make_benchmark_plant()
        lip = estimate_lip_f(plant.f_true, plant.domain_lo, plant.domain_hi)
        assert lip == 10.056694611978443


class TestDrift:
    def test_benchmark_cancellation(self):
        plant = make_benchmark_plant()
        assert drift(plant, 0.0, -5.5) == pytest.approx(0.0, abs=F_TOL)

    def test_unforced_is_hidden_term(self):
        plant = make_benchmark_plant()
        rng = SplitMix64(900)
        for _ in range(50):
            x = rng.uniform(-1.5, 1.5)
            assert drift(plant, x, 0.0) == benchmark_f(x)

    def test_gain_guard(self):
        plant = PlantSpec(
            h=lambda x: 0.0,
            g=lambda x: x,  # vanishes inside the domain
            f_true=lambda x: 0.0,
            domain_lo=0.5,
            domain_hi=1.5,
        )
        with pytest.raises(SingularGain):
            drift(plant, 0.0, 1.0)

    def test_construction_rejects_vanishing_gain(self):
        with pytest.raises(SingularGain):
            PlantSpec(
                h=lambda x: 0.0,
                g=lambda x: x,
                f_true=lambda x: 0.0,
                domain_lo=-1.0,
                domain_hi=1.0,
            )


class TestMeasure:
    def test_zero_noise_identity(self):
        plant = make_benchmark_plant()
        rng = SplitMix64(901)
        for _ in range(200):
            x = rng.uniform(-1.5, 1.5)
            u = rng.uniform(-20.0, 20.0)
            xdot = drift(plant, x, u)
            assert measure(plant, x, u, xdot, 0.0) == pytest.approx(
                benchmark_f(x), abs=F_TOL
            )

    def test_zero_noise_identity_nontrivial_h_g(self):
        plant = PlantSpec(
            h=lambda x: 2.0 * x,
            g=lambda x: 1.0 + 0.5 * math.cos(x),
            f_true=lambda x: math.sin(x),
            domain_lo=-1.5,
            domain_hi=1.5,
        )
        rng = SplitMix64(902)
        for _ in range(200):
            x = rng.uniform(-1.5, 1.5)
            u = rng.uniform(-20.0, 20.0)
            xdot = drift(plant, x, u)
            assert measure(plant, x, u, xdot, 0.0) == pytest.approx(
                math.sin(x), abs=1e-10
            )

    def test_additive_noise(self):
        plant = make_benchmark_plant()
        xdot = drift(plant, 0.0, 0.0)
        assert measure(plant, 0.0, 0.0, xdot, 0.02) == pytest.approx(5.52, abs=F_TOL)

    def test_noise_std_recovered(self):
        plant = make_benchmark_plant()
        rng = SplitMix64(903)
        x = 0.4
        xdot = drift(plant, x, 1.3)
        resid = [
            measure(plant, x, 1.3, xdot, rng.normal(0.0, 0.01)) - benchmark_f(x)
            for _ in range(10_000)
        ]
        mean = sum(resid) / len(resid)
        std = math.sqrt(sum((r - mean) ** 2 for r in resid) / (len(resid) - 1))
        assert std == pytest.approx(0.01, rel=0.05)


class TestBuiltins:
    def test_benchmark_plant_shape(self):
        plant = make_benchmark_plant()
        assert plant.h(0.7) == 0.0
        assert plant.g(0.7) == 1.0
        assert (plant.domain_lo, plant.domain_hi) == (-1.5, 1.5)

    def test_appendix_plant_is_pure_integrator(self):
        plant = make_appendix_plant()
        assert drift(plant, 0.5, 2.0) == 2.0

    def test_affine_family(self):
        plant = make_affine_plant(f_offset=1.0, f_slope=-2.0, g_const=3.0)
        assert drift(plant, 0.5, 1.0) == pytest.approx(1.0 - 1.0 + 3.0, abs=F_TOL)

    def test_sinusoidal_family(self):
        plant = make_sinusoidal_plant(amplitude=2.0, frequency=5.0, offset=1.0)
        assert plant.f_true(0.3) == pytest.approx(2.0 * math.sin(1.5) + 1.0, abs=F_TOL)

    def test_make_plant_dispatch(self):
        assert make_plant("benchmark").name == "benchmark"
        assert make_plant("affine", f_offset=0.0, f_slope=1.0).name == "affine"

    def test_make_plant_unknown_name(self):
        with pytest.raises(InvalidParam):
            make_plant("quadrotor")

    def test_make_plant_bad_params(self):
        with pytest.raises(InvalidParam):
            make_plant("affine", f_offset=0.0)  # missing slope

    def test_zero_gain_family_rejected(self):
        with pytest.raises(SingularGain):
            make_affine_plant(f_offset=0.0, f_slope=1.0, g_const=0.0)

    def test_empty_domain_rejected(self):
        with pytest.raises(InvalidParam):
            make_affine_plant(f_offset=0.0, f_slope=1.0, domain_lo=1.0, domain_hi=1.0)

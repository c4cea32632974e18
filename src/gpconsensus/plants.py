"""Ground-truth agent dynamics and the noisy measurement model.

A plant is scalar: xdot = h(x) + f_true(x) + g(x) u, with h and g known
to the controller and f_true hidden from it. Measurements of f_true are
formed by subtracting the known terms from the state derivative and are
corrupted by additive Gaussian noise whose draw is supplied by the
caller, keeping every function here pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidParam, SingularGain
from .gp import domain_grid, max_slope

DEFAULT_G_MIN = 1e-6

_VALIDATION_GRID_POINTS = 1001


@dataclass(frozen=True)
class PlantSpec:
    """Immutable plant: known terms h, g, hidden term f_true, domain, gain guard.

    Construction validates |g(x)| >= g_min on a uniform grid over the
    domain, so an input gain that loses authority anywhere is rejected
    up front rather than mid-simulation.
    """

    h: Callable[[float], float]
    g: Callable[[float], float]
    f_true: Callable[[float], float]
    domain_lo: float
    domain_hi: float
    g_min: float = DEFAULT_G_MIN
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if not (self.domain_hi > self.domain_lo):
            raise InvalidParam(f"empty domain [{self.domain_lo}, {self.domain_hi}]")
        if not (self.g_min > 0.0):
            raise InvalidParam(f"g_min must be > 0, got {self.g_min}")
        grid = np.linspace(self.domain_lo, self.domain_hi, _VALIDATION_GRID_POINTS)
        for x in grid:
            if abs(self.g(float(x))) < self.g_min:
                raise SingularGain(
                    f"|g({float(x):.6g})| < g_min={self.g_min} for plant {self.name!r}"
                )


def benchmark_f(x: float) -> float:
    """Hidden term of the four-agent study plant: sin(10x) + exp(x/10)/2 + 5."""
    return math.sin(10.0 * x) + 0.5 * math.exp(x / 10.0) + 5.0


def drift(spec: PlantSpec, x: float, u: float) -> float:
    """True state derivative h(x) + f_true(x) + g(x) u."""
    gain = spec.g(x)
    if abs(gain) < spec.g_min:
        raise SingularGain(f"|g({x:.6g})| = {abs(gain):.3g} < g_min={spec.g_min}")
    return spec.h(x) + spec.f_true(x) + gain * u


def measure(spec: PlantSpec, x: float, u: float, xdot_true: float, noise: float) -> float:
    """Training target: xdot - h(x) - g(x) u + noise.

    With the exact derivative this is f_true(x) + noise, so the target
    noise is exactly the Gaussian the learning bound assumes.
    """
    return xdot_true - spec.h(x) - spec.g(x) * u + noise


def estimate_lip_f(
    f: Callable[[float], float],
    domain_lo: float,
    domain_hi: float,
    grid_step: float = 1e-4,
) -> float:
    """Max absolute finite-difference slope of f over a uniform grid."""
    grid = domain_grid(domain_lo, domain_hi, grid_step)
    return max_slope(grid, np.array([f(x) for x in grid.tolist()]))


# -- named built-ins ---------------------------------------------------


def _zero(_: float) -> float:
    return 0.0


def _one(_: float) -> float:
    return 1.0


def make_benchmark_plant() -> PlantSpec:
    """Four-agent study plant: h = 0, g = 1, hidden benchmark_f on [-1.5, 1.5]."""
    return PlantSpec(
        h=_zero,
        g=_one,
        f_true=benchmark_f,
        domain_lo=-1.5,
        domain_hi=1.5,
        name="benchmark",
    )


def make_appendix_plant() -> PlantSpec:
    """Two-agent closed-form comparison plant: h = 0, g = 1, f_true = 0.

    With a constant-bias predictor the closed loop becomes the linear
    consensus system whose exact solution the analysis module provides;
    keeping f_true constant means the held input introduces no
    within-step model error beyond the integrator's own.
    """
    return PlantSpec(
        h=_zero,
        g=_one,
        f_true=_zero,
        domain_lo=-3.0,
        domain_hi=3.0,
        name="appendix",
    )


def make_affine_plant(
    f_offset: float,
    f_slope: float,
    g_const: float = 1.0,
    domain_lo: float = -1.5,
    domain_hi: float = 1.5,
) -> PlantSpec:
    """Family with f(x) = f_offset + f_slope x, h = 0, constant gain."""
    return PlantSpec(
        h=_zero,
        g=lambda _x: g_const,
        f_true=lambda x: f_offset + f_slope * x,
        domain_lo=domain_lo,
        domain_hi=domain_hi,
        name="affine",
    )


def make_sinusoidal_plant(
    amplitude: float,
    frequency: float,
    offset: float = 0.0,
    g_const: float = 1.0,
    domain_lo: float = -1.5,
    domain_hi: float = 1.5,
) -> PlantSpec:
    """Family with f(x) = amplitude sin(frequency x) + offset, h = 0."""
    return PlantSpec(
        h=_zero,
        g=lambda _x: g_const,
        f_true=lambda x: amplitude * math.sin(frequency * x) + offset,
        domain_lo=domain_lo,
        domain_hi=domain_hi,
        name="sinusoidal",
    )


_PLANT_BUILDERS: dict[str, Callable[..., PlantSpec]] = {
    "benchmark": make_benchmark_plant,
    "appendix": make_appendix_plant,
    "affine": make_affine_plant,
    "sinusoidal": make_sinusoidal_plant,
}

PLANT_NAMES = tuple(sorted(_PLANT_BUILDERS))


def make_plant(name: str, **params) -> PlantSpec:
    """Instantiate a named plant family with its coefficient table."""
    try:
        builder = _PLANT_BUILDERS[name]
    except KeyError:
        raise InvalidParam(
            f"unknown plant {name!r}; expected one of {PLANT_NAMES}"
        ) from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise InvalidParam(f"bad parameters for plant {name!r}: {exc}") from None

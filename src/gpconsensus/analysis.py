"""Trajectory metrics and the two-agent closed-form reference."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParam


def average_state(x0) -> float:
    """Arithmetic mean of the initial states; the consensus target."""
    values = list(x0)
    if not values:
        raise InvalidParam("average_state needs a nonempty state list")
    return float(sum(values) / len(values))


def consensus_error(x, x_bar_star: float) -> float:
    """Euclidean distance of the state vector from uniform consensus."""
    arr = np.asarray(x, dtype=float)
    return float(np.linalg.norm(arr - x_bar_star))


def appendix_solution(
    x0: tuple[float, float], eps_bias: float, c: float, t: float
) -> tuple[float, float]:
    """Closed-form two-agent trajectory under a constant residual bias.

    For xdot_i = eps_bias - c (x_i - x_j) on a single edge:
    both states share the drifting mean (x1(0)+x2(0))/2 + eps_bias*t and
    approach it as exp(-2ct) from opposite sides. With zero bias both
    converge to the initial mean; with nonzero bias the mean walks away
    linearly, which is exactly why raw-state consensus cannot average.
    """
    if not (c > 0.0):
        raise InvalidParam(f"c must be > 0, got {c}")
    if t < 0.0:
        raise InvalidParam(f"t must be >= 0, got {t}")
    x1, x2 = float(x0[0]), float(x0[1])
    mean_t = 0.5 * (x1 + x2) + eps_bias * t
    dev = 0.5 * (x1 - x2) * math.exp(-2.0 * c * t)
    return mean_t + dev, mean_t - dev

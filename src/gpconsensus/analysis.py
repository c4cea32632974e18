"""Trajectory metrics and the two-agent closed-form reference.

Also provides the offline comparison between the two online trigger
rules, which is reported as data rather than assumed equivalent.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParam
from .triggers import rho_proposed, rho_relaxed


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


def trend_slope(times, values) -> float:
    """Least-squares slope of values against time."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < 2:
        raise InvalidParam("trend_slope needs at least two samples")
    return float(np.polyfit(t, v, 1)[0])


def relaxed_disagreement_rate(
    eta, x, x_bar, c: float, n_agents: int, eta_bar_lower: float, epsilon: float
) -> float:
    """Fraction of logged states where the two online rules disagree.

    Replays rho for both rules over (eta, x, x_bar) arrays of identical
    shape (records x agents) and compares the fire decisions.
    """
    eta = np.asarray(eta, dtype=float)
    x = np.asarray(x, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    if not (eta.shape == x.shape == x_bar.shape):
        raise InvalidParam("eta, x, x_bar must have identical shapes")
    total = eta.size
    if total == 0:
        raise InvalidParam("no records to compare")
    a = rho_proposed(eta, x, x_bar, c, n_agents, eta_bar_lower) > 0.0
    b = rho_relaxed(eta, x, x_bar, c, n_agents, eta_bar_lower, epsilon) > 0.0
    return np.count_nonzero(a != b) / total

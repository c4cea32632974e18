"""Decentralized event triggers for online data collection.

Every rule is a pure function of quantities an agent can compute locally:
its current prediction error bound eta, its disagreement x - x_bar with
its own auxiliary state, the consensus gain c, the agent count N, and the
post-update bound floor eta_bar_lower. The rho functions take scalars or
agent arrays alike. A trigger fires where its rho value is strictly
positive; ties do not fire. eta must always be evaluated with the
pre-update model.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidParam

MODES = ("proposed", "naive", "relaxed", "none")

Values = float | NDArray


def rho_proposed(
    eta: Values,
    x: Values,
    x_bar: Values,
    c: float,
    n_agents: int,
    eta_bar_lower: float,
) -> Values:
    """Disagreement-aware trigger value.

    rho = eta - max{ c|x - x_bar| - sqrt(N-1) eta_bar, eta_bar }. The
    first branch tolerates large bounds while the agent is far from its
    auxiliary state (accuracy there is not yet needed); the floor makes
    firing pointless once eta is already at the post-update level. For
    N = 1 this degenerates to eta - max{ c|x - x_bar|, eta_bar }.
    """
    gap = c * np.abs(x - x_bar) - math.sqrt(n_agents - 1) * eta_bar_lower
    return eta - np.maximum(gap, eta_bar_lower)


def rho_naive(eta: Values, eta_bar_lower: float) -> Values:
    """Always-learn baseline: fire whenever the bound exceeds its floor."""
    return eta - eta_bar_lower


def rho_relaxed(
    eta: Values,
    x: Values,
    x_bar: Values,
    c: float,
    n_agents: int,
    eta_bar_lower: float,
    epsilon: float,
) -> Values:
    """Relaxed variant that keys on the accuracy target epsilon.

    rho = eta - ( (1/c) max{|x - x_bar| - epsilon/sqrt(N), 0} + eta_bar ).
    Implemented exactly as stated; it is NOT algebraically identical to
    the disagreement-aware rule, and disagreement between the two is
    measured rather than assumed away.
    """
    slack = np.maximum(np.abs(x - x_bar) - epsilon / math.sqrt(n_agents), 0.0) / c
    return eta - (slack + eta_bar_lower)


def evaluate_trigger(
    mode: str,
    eta: Values,
    x: Values,
    x_bar: Values,
    c: float,
    n_agents: int,
    eta_bar_lower: float,
    epsilon: float | None = None,
) -> Values:
    """rho of the selected rule; an agent fires where rho > 0.

    Mode "none" gives rho = 0 everywhere, so it never fires.
    """
    if mode == "proposed":
        return rho_proposed(eta, x, x_bar, c, n_agents, eta_bar_lower)
    if mode == "naive":
        return rho_naive(eta, eta_bar_lower)
    if mode == "relaxed":
        if epsilon is None:
            raise InvalidParam("relaxed trigger requires epsilon")
        return rho_relaxed(eta, x, x_bar, c, n_agents, eta_bar_lower, epsilon)
    if mode == "none":
        return np.zeros(np.shape(eta))
    raise InvalidParam(f"unknown trigger mode {mode!r}; expected one of {MODES}")

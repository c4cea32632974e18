"""Decentralized event triggers for online data collection.

Every rule is a pure function of quantities an agent can compute locally:
its current prediction error bound eta, its disagreement x - x_bar with
its own auxiliary state, the consensus gain c, the agent count N, and the
post-update bound floor eta_bar_lower. A rule is its threshold: the
trigger value is rho = eta - threshold, and the trigger fires where rho
is strictly positive; ties do not fire. The threshold does not read eta,
so an upper bound on eta at or below it proves the trigger silent. The
functions take scalars or agent arrays alike. eta must always be
evaluated with the pre-update model.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidParam

MODES = ("proposed", "naive", "relaxed", "none")

Values = float | NDArray


def trigger_threshold(
    mode: str,
    x: Values,
    x_bar: Values,
    c: float,
    n_agents: int,
    eta_bar_lower: float,
    epsilon: float | None = None,
) -> Values:
    """Each agent's bound eta at which the selected rule's trigger value is 0.

    - proposed (disagreement-aware): max{ c|x - x_bar| - sqrt(N-1) eta_bar,
      eta_bar }. The first branch tolerates large bounds while the agent
      is far from its auxiliary state (accuracy there is not yet needed);
      the floor makes firing pointless once eta is already at the
      post-update level. For N = 1 this is max{ c|x - x_bar|, eta_bar }.
    - naive (always learn): eta_bar, the bound's floor.
    - relaxed: (1/c) max{|x - x_bar| - epsilon/sqrt(N), 0} + eta_bar, keyed
      on the accuracy target epsilon. Implemented exactly as stated; it is
      NOT algebraically identical to the disagreement-aware rule, and
      disagreement between the two is measured rather than assumed away.
    - none: +inf, which no bound reaches.
    """
    if mode == "proposed":
        gap = c * np.abs(x - x_bar) - math.sqrt(n_agents - 1) * eta_bar_lower
        return np.maximum(gap, eta_bar_lower)
    if mode == "naive":
        return np.full(np.shape(x), eta_bar_lower)
    if mode == "relaxed":
        if epsilon is None:
            raise InvalidParam("relaxed trigger requires epsilon")
        slack = np.maximum(np.abs(x - x_bar) - epsilon / math.sqrt(n_agents), 0.0) / c
        return slack + eta_bar_lower
    if mode == "none":
        return np.full(np.shape(x), math.inf)
    raise InvalidParam(f"unknown trigger mode {mode!r}; expected one of {MODES}")


def evaluate_trigger(mode: str, eta: Values, threshold: Values) -> Values:
    """rho = eta - threshold of the selected rule; an agent fires where rho > 0.

    threshold is ``trigger_threshold`` of the same mode. Mode "none" gives
    rho = 0 everywhere, so it never fires.
    """
    if mode == "none":
        return np.zeros(np.shape(eta))
    return eta - threshold

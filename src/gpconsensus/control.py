"""Distributed control laws and the auxiliary consensus dynamics.

Every law here is evaluated for all agents at once on a frozen snapshot
of the state vectors, yet agent i's entry reads only its own state and
its neighbors'. The conventional law drives plain state disagreement;
the compensated law drives the disagreement between each state and a
noise-free auxiliary system that performs exact average consensus on
the initial conditions, which is what confines the effect of residual
model error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidParam, SingularGain
from .plants import PlantSpec
from .topology import Topology


@dataclass(frozen=True)
class ControlGains:
    """Consensus gain c and auxiliary-dynamics gain c_bar."""

    c: float
    c_bar: float

    def __post_init__(self):
        if not (self.c > 0.0):
            raise InvalidParam(f"c must be > 0, got {self.c}")
        if not (self.c_bar > 0.0):
            raise InvalidParam(f"c_bar must be > 0, got {self.c_bar}")


def _neighbor_disagreement(v: NDArray, topology: Topology) -> NDArray:
    """sum_j (v_i - v_j) over each agent's neighbors j.

    Terms are added one neighbor slot at a time in neighbor order, which
    rounds exactly like a scalar running sum; a padded slot gathers v_i
    itself and adds exactly 0.0.
    """
    total = np.zeros(v.shape)
    for idx in topology.gather:
        total += v - v[idx]
    return total


def auxiliary_rate(x_bar: NDArray, topology: Topology, gains: ControlGains) -> NDArray:
    """Rates of the auxiliary states: -c_bar * sum_j (x_bar_i - x_bar_j)."""
    return -gains.c_bar * _neighbor_disagreement(x_bar, topology)


def _known_terms(plant: PlantSpec, x: NDArray) -> tuple[NDArray, NDArray]:
    """h(x) and g(x) per agent; raises SingularGain where |g| < g_min."""
    xs = x.tolist()
    gain = [plant.g(xi) for xi in xs]
    for xi, gi in zip(xs, gain):
        if abs(gi) < plant.g_min:
            raise SingularGain(f"|g({xi:.6g})| = {abs(gi):.3g} < g_min={plant.g_min}")
    return np.array([plant.h(xi) for xi in xs]), np.array(gain)


def control_conventional(
    x: NDArray, f_hat: NDArray, topology: Topology, plant: PlantSpec, gains: ControlGains
) -> NDArray:
    """Feedback-linearizing law on raw state disagreement.

    u_i = -(1/g) ( h(x_i) + f_hat_i + c * sum_j (x_i - x_j) ).
    """
    h, gain = _known_terms(plant, x)
    consensus = _neighbor_disagreement(x, topology)
    return -(h + f_hat + gains.c * consensus) / gain


def control_proposed(
    x: NDArray,
    x_bar: NDArray,
    f_hat: NDArray,
    topology: Topology,
    plant: PlantSpec,
    gains: ControlGains,
    x_bar_rate: NDArray,
) -> NDArray:
    """Compensated law on auxiliary-relative disagreement.

    With xt_i = x_i - x_bar_i,
    u_i = -(1/g) ( h(x_i) + f_hat_i + c ( sum_j (xt_i - xt_j) + xt_i ) - x_bar_rate_i ),
    where x_bar_rate is the closed-form rate of the auxiliary states this
    same step (no numerical differentiation).
    """
    h, gain = _known_terms(plant, x)
    xt = x - x_bar
    r = _neighbor_disagreement(xt, topology) + xt
    return -(h + f_hat + gains.c * r - x_bar_rate) / gain


def epsilon_bound(gains: ControlGains, n_agents: int, eta_bar_lower: float) -> float:
    """Ultimate accuracy radius 2 N eta_bar / c of the compensated loop."""
    if n_agents < 1:
        raise InvalidParam(f"n_agents must be >= 1, got {n_agents}")
    if not (eta_bar_lower > 0.0):
        raise InvalidParam(f"eta_bar_lower must be > 0, got {eta_bar_lower}")
    return 2.0 * n_agents * eta_bar_lower / gains.c


def check_domain_containment(
    domain_lo: float, domain_hi: float, x_bar_star: float, epsilon: float
) -> bool:
    """Whether the accuracy band around the initial mean stays inside the domain."""
    return domain_lo <= x_bar_star - epsilon and x_bar_star + epsilon <= domain_hi

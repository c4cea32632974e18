"""The four study cases on the benchmark plant.

Case a: conventional controller, offline dataset of 150 grid samples.
Case b: conventional controller, online learning with the naive trigger.
Case c: compensated controller, offline dataset of 150 grid samples.
Case d: compensated controller, online learning with the
        disagreement-aware trigger.

All share the ring of four agents, unit gains, the benchmark plant, its
kernel (sigma_f = 1, length scale 0.05), noise 0.01, and a 10 s horizon.
The stock initial state is the headline single-run condition; Monte
Carlo sweeps replace it with uniform draws.
"""

from __future__ import annotations

from dataclasses import replace

from .config import SimConfig
from .errors import InvalidParam

BENCH_INITIAL_STATES = (-0.52, 0.15, -0.06, -0.71)

_COMMON = SimConfig(
    n_agents=4,
    edges=((1, 2), (2, 3), (3, 4), (4, 1)),
    plant="benchmark",
    c=1.0,
    c_bar=1.0,
    dt=1e-3,
    t_end=10.0,
    initial_states=BENCH_INITIAL_STATES,
    sigma_f=1.0,
    length_scale=0.05,
    sigma_n=0.01,
    delta=0.01,
    tau=1e-3,
    seed=0,
    max_points=1000,
    log_stride=10,
)

_CASE_FIELDS = {
    "a": dict(controller="conventional", learning="offline", offline_dataset_size=150),
    "b": dict(controller="conventional", learning="online_naive", offline_dataset_size=0),
    "c": dict(controller="proposed", learning="offline", offline_dataset_size=150),
    "d": dict(controller="proposed", learning="online_proposed", offline_dataset_size=0),
}

CASE_IDS = tuple(sorted(_CASE_FIELDS))


def case_preset(case_id: str) -> SimConfig:
    """Full config for one of the four study cases."""
    return apply_case(_COMMON, case_id)


def apply_case(config: SimConfig, case_id: str) -> SimConfig:
    """Overlay a case's controller/learning fields on an existing config."""
    try:
        fields = _CASE_FIELDS[case_id]
    except KeyError:
        raise InvalidParam(
            f"unknown case {case_id!r}; expected one of {CASE_IDS}"
        ) from None
    return replace(config, case_label=case_id, **fields)

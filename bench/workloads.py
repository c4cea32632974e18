"""The four benchmark workloads, each a closed loop of CLI calls.

A unit is one complete workload as a user runs it: one or more
``gpconsensus`` command lines, each run to completion before the next
starts. The benchmark repeats units until its time budget is spent.
Every workload is described here once; the runner, the set-up probe and
the reference generator all read it from this module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

# Stored reference seeds. The benchmark's --seed n runs program seed
# REFERENCE_SEEDS[n % len(REFERENCE_SEEDS)], so every run is checked
# against a reference made at the baseline commit.
REFERENCE_SEEDS = tuple(range(10))


@dataclass(frozen=True)
class Workload:
    command: str  # "run" or "montecarlo"
    cases: tuple[str, ...]
    scenario: dict  # key = value lines written to a scenario file
    runs: int = 1  # montecarlo runs per case
    jobs: int = 1


FULL = {
    "study-headline": Workload(
        command="run",
        cases=("a", "b", "c", "d"),
        scenario={"t_end": 2.0},
    ),
    "sweep-jobs2": Workload(
        command="montecarlo",
        cases=("a", "b", "c", "d"),
        scenario={"t_end": 0.25},
        runs=8,
        jobs=2,
    ),
    "offline-dense": Workload(
        command="run",
        cases=("c",),
        scenario={"offline_dataset_size": 1000, "t_end": 1.0},
    ),
    "online-narrow": Workload(
        command="run",
        cases=("d",),
        scenario={"length_scale": 0.02, "t_end": 3.0},
    ),
}

# Self-test size: same commands, a few dozen steps each.
TINY_OVERRIDES = {
    "study-headline": {"t_end": 0.05},
    "sweep-jobs2": {"t_end": 0.05},
    "offline-dense": {"offline_dataset_size": 200, "t_end": 0.05},
    "online-narrow": {"t_end": 0.05},
}


def get(name: str, size: str = "full") -> Workload:
    workload = FULL[name]
    if size == "tiny":
        workload = replace(workload, scenario={**workload.scenario, **TINY_OVERRIDES[name]})
    return workload


def program_seed(seed: int) -> int:
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def scenario_text(workload: Workload) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in workload.scenario.items())


def cli_calls(workload: Workload, seed: int, out_dir: str) -> list[list[str]]:
    """Command lines (without the program name) for one unit."""
    config = os.path.join(out_dir, "scenario.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(scenario_text(workload))
    if workload.command == "montecarlo":
        return [
            [
                "montecarlo",
                "--config", config,
                "--cases", ",".join(workload.cases),
                "--runs", str(workload.runs),
                "--jobs", str(workload.jobs),
                "--seed", str(seed),
                "--out", out_dir,
            ]
        ]
    return [
        ["run", "--case", case, "--config", config, "--seed", str(seed),
         "--out", os.path.join(out_dir, case)]
        for case in workload.cases
    ]


def episode_configs(workload: Workload, seed: int) -> list:
    """The SimConfig of every episode in one unit, resolved as the CLI does."""
    from gpconsensus.config import SimConfig, parse_config_text
    from gpconsensus.presets import apply_case, case_preset

    text = scenario_text(workload)
    if workload.command == "montecarlo":
        base = replace(parse_config_text(text, SimConfig()), seed=seed)
        return [
            replace(apply_case(base, case), seed=seed + k, initial_states=None)
            for case in workload.cases
            for k in range(workload.runs)
        ]
    return [
        replace(parse_config_text(text, case_preset(case)), seed=seed)
        for case in workload.cases
    ]

"""Run configuration: schema, validation, flat-file parsing, hashing.

Scenario files are flat ``key = value`` text with ``#`` comments. Keys
map one-to-one onto SimConfig fields; plant coefficients use the dotted
form ``plant.<param>``. The parser is the only place where 1-based agent
indices and textual enums enter the system.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

# learning strategy -> trigger rule driving online data collection; offline
# learning collects no data and evaluates no rule
TRIGGER_FOR_LEARNING = {
    "offline": None,
    "online_naive": "naive",
    "online_proposed": "proposed",
    "online_relaxed": "relaxed",
}

CONTROLLERS = ("conventional", "proposed")
LEARNING_MODES = tuple(TRIGGER_FOR_LEARNING)
PREDICTORS = ("gp", "oracle_biased")
MEASUREMENT_MODES = ("oracle", "finite_difference")


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation episode."""

    n_agents: int = 4
    edges: tuple[tuple[int, int], ...] = ((1, 2), (2, 3), (3, 4), (4, 1))
    plant: str = "benchmark"
    plant_params: tuple[tuple[str, float], ...] = ()
    c: float = 1.0
    c_bar: float = 1.0
    controller: str = "proposed"
    learning: str = "online_proposed"
    predictor: str = "gp"
    eps_bias: float = 0.0
    dt: float = 1e-3
    t_end: float = 10.0
    initial_states: tuple[float, ...] | None = None
    offline_dataset_size: int = 0
    sigma_f: float = 1.0
    length_scale: float = 0.05
    sigma_n: float = 0.01
    delta: float = 0.01
    tau: float = 1e-3
    seed: int = 0
    max_points: int = 1000
    log_stride: int = 10
    lip_f: float | None = None
    measurement_mode: str = "oracle"
    case_label: str = ""


# each field's kind, read from its default: int, float and str keys parse
# and check alike; tuple and None defaults mark keys with their own syntax
_KIND = {f.name: type(f.default) for f in fields(SimConfig)}

_CHOICES = {
    "controller": CONTROLLERS,
    "learning": LEARNING_MODES,
    "predictor": PREDICTORS,
    "measurement_mode": MEASUREMENT_MODES,
}


def validate_config(config: SimConfig) -> SimConfig:
    """Check config-level and cross-field rules; returns the config unchanged.

    Parameter ranges are checked by the value objects ``prepare_run`` builds.
    """

    def fail(msg: str):
        raise ConfigError(msg)

    if config.n_agents < 1:
        fail(f"n_agents must be >= 1, got {config.n_agents}")
    for name, choices in _CHOICES.items():
        if getattr(config, name) not in choices:
            fail(f"{name} must be one of {choices}, got {getattr(config, name)!r}")
    for name, kind in _KIND.items():
        if kind is float and not math.isfinite(getattr(config, name)):
            fail(f"{name} must be finite, got {getattr(config, name)}")
    for name, value in config.plant_params:
        if not math.isfinite(value):
            fail(f"plant.{name} must be finite, got {value}")
    if not (config.dt > 0.0):
        fail(f"dt must be > 0, got {config.dt}")
    if config.t_end < 0.0:
        fail(f"t_end must be >= 0, got {config.t_end}")
    # a run takes round(t_end / dt) steps, so its last row must be t_end
    if abs(math.remainder(config.t_end, config.dt)) > 1e-9 * config.t_end:
        fail(
            f"t_end must be a whole number of dt steps, got t_end={config.t_end} "
            f"and dt={config.dt}"
        )
    if config.controller == "proposed" and config.delta >= 1.0 / config.n_agents:
        fail(
            f"delta must be < 1/N = {1.0 / config.n_agents:.6g} for the "
            f"compensated controller, got {config.delta}"
        )
    if config.seed < 0:
        fail(f"seed must be >= 0, got {config.seed}")
    if config.max_points < 1:
        fail(f"max_points must be >= 1, got {config.max_points}")
    if config.log_stride < 1:
        fail(f"log_stride must be >= 1, got {config.log_stride}")
    if config.offline_dataset_size < 0:
        fail(f"offline_dataset_size must be >= 0, got {config.offline_dataset_size}")
    if config.offline_dataset_size > config.max_points:
        fail(
            f"offline_dataset_size {config.offline_dataset_size} exceeds "
            f"max_points {config.max_points}"
        )
    if config.initial_states is not None:
        if len(config.initial_states) != config.n_agents:
            fail(
                f"initial_states has {len(config.initial_states)} entries "
                f"for {config.n_agents} agents"
            )
        if not all(math.isfinite(v) for v in config.initial_states):
            fail("initial_states must be finite")
    if config.predictor != "gp":
        # the oracle predictor bypasses the model entirely; pairing it with a
        # learning trigger or an offline dataset would be contradictory
        if config.learning != "offline" or config.offline_dataset_size != 0:
            fail("predictor overrides require learning=offline and no offline data")
    return config


# -- serialization and hashing ----------------------------------------


def config_to_text(config: SimConfig) -> str:
    """Canonical flat-text form; stable key order, round-trip floats."""
    lines = []
    for f in fields(SimConfig):
        value = getattr(config, f.name)
        if f.name == "plant_params":
            # dotted form so the output parses back through parse_config_text
            for k, v in sorted(value):
                lines.append(f"plant.{k} = {repr(float(v))}")
            continue
        lines.append(f"{f.name} = {_format_value(f.name, value)}")
    return "\n".join(lines) + "\n"


def config_hash(config: SimConfig) -> str:
    """12-hex-digit digest of the canonical serialization."""
    return hashlib.sha256(config_to_text(config).encode()).hexdigest()[:12]


def _format_value(name: str, value) -> str:
    if name == "edges":
        return ", ".join(f"{i}-{j}" for i, j in value)
    if name == "initial_states":
        return "sample" if value is None else ", ".join(repr(float(v)) for v in value)
    if name == "lip_f":
        return "auto" if value is None else repr(float(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


# -- flat-file parsing -------------------------------------------------

def parse_config_text(text: str, base: SimConfig | None = None) -> SimConfig:
    """Parse ``key = value`` lines over a base config (defaults if None)."""
    config = base if base is not None else SimConfig()
    overrides: dict = {}
    plant_params = dict(config.plant_params)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        kind = _KIND.get(key)
        if key.startswith("plant."):
            plant_params[key[len("plant.") :]] = _parse_float(key, value, lineno)
        elif kind is int:
            overrides[key] = _parse_int(key, value, lineno)
        elif kind is float:
            overrides[key] = _parse_float(key, value, lineno)
        elif kind is str:
            overrides[key] = value
        elif key == "edges":
            overrides[key] = _parse_edges(value, lineno)
        elif key == "initial_states":
            overrides[key] = _parse_initial_states(value, lineno)
        elif key == "lip_f":
            overrides[key] = None if value == "auto" else _parse_float(key, value, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if plant_params:
        overrides["plant_params"] = tuple(sorted(plant_params.items()))
    return replace(config, **overrides)


def parse_config_file(path, base: SimConfig | None = None) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, base)


def _parse_int(key: str, value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects an integer, got {value!r}") from None


def _parse_float(key: str, value: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects a number, got {value!r}") from None


def _parse_edges(value: str, lineno: int) -> tuple[tuple[int, int], ...]:
    edges = []
    if value.strip():
        for token in value.split(","):
            token = token.strip()
            if "-" not in token:
                raise ConfigError(f"line {lineno}: edge {token!r} is not 'i-j'")
            a, _, b = token.partition("-")
            edges.append((_parse_int("edge", a.strip(), lineno), _parse_int("edge", b.strip(), lineno)))
    return tuple(edges)


def _parse_initial_states(value: str, lineno: int) -> tuple[float, ...] | None:
    if value in ("sample", "uniform"):
        return None
    return tuple(_parse_float("initial_states", v.strip(), lineno) for v in value.split(","))

"""Fixed-step closed-loop simulation and Monte Carlo orchestration.

One step is: freeze a snapshot of (x, x_bar); for each agent in turn,
evaluate its trigger on its pre-update error bound, take a measurement
and grow its model if it fired, and compute its auxiliary rate and
input from the snapshot and the post-update posterior mean; advance the
coupled states one classical Runge-Kutta step with the input held
constant (zero-order hold). All randomness flows from one SplitMix64
stream per episode, so a config (including its seed) fully determines
every output byte.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .analysis import average_state, consensus_error
from .config import TRIGGER_FOR_LEARNING, SimConfig, config_hash, validate_config
from .control import (
    AgentView,
    ControlGains,
    auxiliary_rate,
    check_domain_containment,
    control_conventional,
    control_proposed,
    epsilon_bound,
)
from .errors import GpConsensusError, OutOfDomain
from .gp import (
    BoundContext,
    GpModel,
    KernelParams,
    check_gamma_condition,
    domain_grid,
    estimate_lipschitz,
    make_bound_context,
)
from .plants import Measurement, PlantSpec, drift, estimate_lip_f, make_plant, measure
from .presets import apply_case
from .rng import SplitMix64
from .topology import Topology, build_topology
from .triggers import TriggerDecision, evaluate_trigger

LIP_GRID_STEP = 1e-3


def rk4_step(rhs, state: NDArray, dt: float) -> NDArray:
    """One classical 4th-order Runge-Kutta step of d(state)/dt = rhs(state)."""
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# -- run assembly ------------------------------------------------------


@dataclass(frozen=True)
class RunContext:
    """Everything derived from a config that stays fixed during a run."""

    config: SimConfig
    topology: Topology
    plant: PlantSpec
    gains: ControlGains
    kernel: KernelParams
    bound: BoundContext
    trigger_mode: str
    epsilon: float
    root_beta: float
    digest: str


def prepare_run(config: SimConfig) -> RunContext:
    validate_config(config)
    topology = build_topology(config.n_agents, config.edges)
    plant = make_plant(config.plant, **dict(config.plant_params))
    gains = ControlGains(c=config.c, c_bar=config.c_bar)
    kernel = KernelParams(sigma_f=config.sigma_f, length_scale=config.length_scale)
    lip_f = (
        config.lip_f
        if config.lip_f is not None
        else estimate_lip_f(plant.f_true, plant.domain_lo, plant.domain_hi)
    )
    bound = make_bound_context(
        delta=config.delta,
        tau=config.tau,
        domain_lo=plant.domain_lo,
        domain_hi=plant.domain_hi,
        noise_std=config.sigma_n,
        lip_f=lip_f,
    )
    return RunContext(
        config=config,
        topology=topology,
        plant=plant,
        gains=gains,
        kernel=kernel,
        bound=bound,
        trigger_mode=TRIGGER_FOR_LEARNING[config.learning],
        epsilon=epsilon_bound(gains, config.n_agents, bound.eta_bar_lower),
        root_beta=math.sqrt(bound.beta),
        digest=config_hash(config),
    )


@dataclass
class SimState:
    """Mutable per-episode state; advanced in place by step()."""

    t: float
    step_index: int
    x: NDArray
    x_bar: NDArray
    x_prev: NDArray
    u_prev: NDArray
    models: list[GpModel]
    trigger_counts: NDArray


@dataclass(frozen=True)
class TriggerEvent:
    """One model update: where, when, what was measured, bound after."""

    agent: int
    step_index: int
    t: float
    x: float
    y: float
    sigma_after: float


@dataclass(frozen=True)
class StepInfo:
    """Diagnostics of one step, for logging."""

    u: NDArray
    rho: NDArray
    eta: NDArray
    fired: NDArray
    events: tuple[TriggerEvent, ...]


def make_offline_dataset(
    plant: PlantSpec, size: int, sigma_n: float, rng: SplitMix64
) -> list[Measurement]:
    """Noisy samples of the hidden term on a uniform grid over the domain."""
    if size < 0:
        raise GpConsensusError(f"offline dataset size must be >= 0, got {size}")
    if size == 0:
        return []
    grid = np.linspace(plant.domain_lo, plant.domain_hi, size)
    return [
        Measurement(x=float(x), y=plant.f_true(float(x)) + rng.normal(0.0, sigma_n), t=0.0)
        for x in grid
    ]


def init_state(run: RunContext, rng: SplitMix64) -> SimState:
    """Draw initial conditions and offline datasets; x_bar starts at x."""
    cfg = run.config
    n = cfg.n_agents
    if cfg.initial_states is not None:
        x = np.array(cfg.initial_states, dtype=float)
    else:
        x = np.array(
            [rng.uniform(run.plant.domain_lo, run.plant.domain_hi) for _ in range(n)]
        )
    models = []
    for _ in range(n):
        if cfg.offline_dataset_size > 0:
            data = make_offline_dataset(
                run.plant, cfg.offline_dataset_size, cfg.sigma_n, rng
            )
            model = GpModel.from_data(
                run.kernel,
                cfg.sigma_n,
                [m.x for m in data],
                [m.y for m in data],
                max_points=cfg.max_points,
            )
        else:
            model = GpModel(run.kernel, cfg.sigma_n, max_points=cfg.max_points)
        models.append(model)
    return SimState(
        t=0.0,
        step_index=0,
        x=x,
        x_bar=x.copy(),
        x_prev=x.copy(),
        u_prev=np.zeros(n),
        models=models,
        trigger_counts=np.zeros(n, dtype=np.int64),
    )


def _f_hat(run: RunContext, mu: float, x: float) -> float:
    if run.config.predictor == "gp":
        return mu
    if run.config.predictor == "oracle":
        return run.plant.f_true(x)
    return run.plant.f_true(x) - run.config.eps_bias  # oracle_biased


def _query_agent(
    run: RunContext, model: GpModel, x: float, x_bar: float
) -> tuple[float, float, TriggerDecision]:
    """One posterior query at an agent's state: (mu, eta, trigger decision).

    eta = 2 sqrt(beta) sigma(x) is the bound of the model as passed in, so
    callers query before any update. This is the only place a trigger is
    evaluated: every step that needs eta and the terminal row go through it.
    """
    mu, sigma = model.posterior(x)
    eta = 2.0 * run.root_beta * sigma
    decision = evaluate_trigger(
        run.trigger_mode,
        eta,
        x,
        x_bar,
        run.config.c,
        run.topology.n_agents,
        run.bound.eta_bar_lower,
        run.epsilon,
    )
    return mu, eta, decision


def step(state: SimState, run: RunContext, rng: SplitMix64, need_eta: bool = True) -> StepInfo:
    """Advance one control period; returns this step's diagnostics.

    Each agent queries its model once. Where a trigger rule is active or
    need_eta is set (the step is logged), that query is a full posterior
    and yields both eta and f_hat; otherwise it is the O(M) mean alone,
    and eta and rho stay 0. A fired agent takes f_hat from the post-update
    posterior that also gives sigma_after. Raises OutOfDomain when a state
    leaves the plant domain or becomes non-finite.
    """
    cfg = run.config
    n = run.topology.n_agents
    x_snap = state.x.copy()
    xb_snap = state.x_bar.copy()
    eta = np.zeros(n)
    rho = np.zeros(n)
    fired = np.zeros(n, dtype=np.int64)
    u = np.empty(n)
    events: list[TriggerEvent] = []

    want_eta = need_eta or run.trigger_mode != "none"
    for i in range(n):
        model = state.models[i]
        if not want_eta:
            mu = model.mean(x_snap[i])
        else:
            mu, eta[i], decision = _query_agent(run, model, x_snap[i], xb_snap[i])
            rho[i] = decision.rho_value
            if decision.fired:
                if cfg.measurement_mode == "oracle" or state.step_index == 0:
                    xdot = drift(run.plant, x_snap[i], state.u_prev[i])
                else:
                    xdot = (x_snap[i] - state.x_prev[i]) / cfg.dt
                noise = rng.normal(0.0, cfg.sigma_n)
                y = measure(run.plant, x_snap[i], state.u_prev[i], xdot, noise)
                model.add_point(x_snap[i], y)
                mu, sigma_after = model.posterior(x_snap[i])
                events.append(
                    TriggerEvent(
                        agent=i,
                        step_index=state.step_index,
                        t=state.t,
                        x=float(x_snap[i]),
                        y=float(y),
                        sigma_after=float(sigma_after),
                    )
                )
                state.trigger_counts[i] += 1
                fired[i] = 1

        nbr = run.topology.neighbors[i]
        view = AgentView(
            x=float(x_snap[i]),
            x_bar=float(xb_snap[i]),
            neighbor_x=tuple(float(x_snap[j]) for j in nbr),
            neighbor_x_bar=tuple(float(xb_snap[j]) for j in nbr),
            f_hat=_f_hat(run, mu, float(x_snap[i])),
        )
        rate = auxiliary_rate(view, run.gains)
        if cfg.controller == "proposed":
            u[i] = control_proposed(view, run.plant, run.gains, rate)
        else:
            u[i] = control_conventional(view, run.plant, run.gains)

    plant = run.plant
    lap = run.topology.laplacian
    c_bar = cfg.c_bar

    def rhs(vec: NDArray) -> NDArray:
        xs = vec[:n]
        dx = np.array([drift(plant, float(xs[i]), float(u[i])) for i in range(n)])
        dxb = -c_bar * (lap @ vec[n:])
        return np.concatenate([dx, dxb])

    state.x_prev = x_snap
    advanced = rk4_step(rhs, np.concatenate([state.x, state.x_bar]), cfg.dt)
    state.x = advanced[:n]
    state.x_bar = advanced[n:]
    state.u_prev = u
    state.step_index += 1
    state.t = state.step_index * cfg.dt
    inside = (state.x >= plant.domain_lo) & (state.x <= plant.domain_hi)
    if not inside.all():
        i = int(np.argmin(inside))
        raise OutOfDomain(
            f"state of agent {i + 1} is {float(state.x[i])!r}, outside "
            f"[{plant.domain_lo}, {plant.domain_hi}]"
        )
    return StepInfo(u=u, rho=rho, eta=eta, fired=fired, events=tuple(events))


# -- episode -----------------------------------------------------------


@dataclass
class Trajectory:
    """Sampled closed-loop records, one row per logged step."""

    t: NDArray
    x: NDArray
    x_bar: NDArray
    u: NDArray
    rho: NDArray
    eta: NDArray
    fired: NDArray
    dataset_size: NDArray
    err: NDArray


@dataclass(frozen=True)
class EpisodeSummary:
    """End-of-run facts for one episode."""

    case_label: str
    seed: int
    final_error: float
    trigger_counts: tuple[int, ...]
    max_dataset_size: tuple[int, ...]
    epsilon: float
    x_bar_star: float
    beta: float
    eta_bar_lower: float
    delta: float
    tau: float
    domain_ok: bool
    gamma_ok: bool
    config_digest: str
    events: tuple[TriggerEvent, ...]


def run_episode(config: SimConfig) -> tuple[Trajectory, EpisodeSummary]:
    """Integrate one episode over [0, t_end] and summarize it."""
    run = prepare_run(config)
    cfg = run.config
    n = cfg.n_agents
    rng = SplitMix64(cfg.seed)
    state = init_state(run, rng)
    x_bar_star = average_state(state.x)

    n_steps = int(round(cfg.t_end / cfg.dt))
    logged = list(range(0, n_steps, cfg.log_stride))
    n_rows = len(logged) + 1  # + terminal diagnostic row

    traj = Trajectory(
        t=np.zeros(n_rows),
        x=np.zeros((n_rows, n)),
        x_bar=np.zeros((n_rows, n)),
        u=np.zeros((n_rows, n)),
        rho=np.zeros((n_rows, n)),
        eta=np.zeros((n_rows, n)),
        fired=np.zeros((n_rows, n), dtype=np.int64),
        dataset_size=np.zeros((n_rows, n), dtype=np.int64),
        err=np.zeros(n_rows),
    )

    all_events: list[TriggerEvent] = []
    row = 0
    try:
        for k in range(n_steps):
            log_now = k % cfg.log_stride == 0
            if log_now:
                traj.t[row] = state.t
                traj.x[row] = state.x
                traj.x_bar[row] = state.x_bar
                traj.err[row] = consensus_error(state.x, x_bar_star)
            info = step(state, run, rng, need_eta=log_now)
            all_events.extend(info.events)
            if log_now:
                traj.u[row] = info.u
                traj.rho[row] = info.rho
                traj.eta[row] = info.eta
                traj.fired[row] = info.fired
                traj.dataset_size[row] = [m.size for m in state.models]
                row += 1
        # terminal diagnostic row: state at t_end; input shown is the one
        # that produced it, trigger evaluated but never acted on
        traj.t[row] = state.t
        traj.x[row] = state.x
        traj.x_bar[row] = state.x_bar
        traj.u[row] = state.u_prev
        traj.err[row] = consensus_error(state.x, x_bar_star)
        for i in range(n):
            _, traj.eta[row, i], decision = _query_agent(
                run, state.models[i], state.x[i], state.x_bar[i]
            )
            traj.rho[row, i] = decision.rho_value
        traj.dataset_size[row] = [m.size for m in state.models]

        # one posterior per model on one grid feeds both end-of-run checks
        grid = domain_grid(run.plant.domain_lo, run.plant.domain_hi, LIP_GRID_STEP)
        gamma_ok = True
        for model in state.models:
            mu, sigma = model.posterior_grid(grid)
            lip_mu, lip_sigma = estimate_lipschitz(grid, mu, sigma)
            ctx_i = replace(run.bound, lip_mu=lip_mu, lip_sigma=lip_sigma)
            gamma_ok = gamma_ok and bool(check_gamma_condition(ctx_i, sigma))
    except GpConsensusError as exc:
        raise type(exc)(
            f"{exc} [case={cfg.case_label or 'custom'} seed={cfg.seed} "
            f"t={state.t:.6g}]"
        ) from exc

    summary = EpisodeSummary(
        case_label=cfg.case_label,
        seed=cfg.seed,
        final_error=float(traj.err[-1]),
        trigger_counts=tuple(int(v) for v in state.trigger_counts),
        max_dataset_size=tuple(m.size for m in state.models),
        epsilon=run.epsilon,
        x_bar_star=x_bar_star,
        beta=run.bound.beta,
        eta_bar_lower=run.bound.eta_bar_lower,
        delta=cfg.delta,
        tau=cfg.tau,
        domain_ok=check_domain_containment(
            run.plant.domain_lo, run.plant.domain_hi, x_bar_star, run.epsilon
        ),
        gamma_ok=gamma_ok,
        config_digest=run.digest,
        events=tuple(all_events),
    )
    return traj, summary


# -- Monte Carlo -------------------------------------------------------


@dataclass(frozen=True)
class McRunRecord:
    """Per-(case, run) outcome."""

    case: str
    run: int
    seed: int
    final_error: float
    trigger_counts: tuple[int, ...]
    max_dataset_size: tuple[int, ...]
    epsilon: float
    domain_ok: bool
    gamma_ok: bool
    max_sigma_after: float
    last_event_t: float
    aux_mean_drift: float
    aux_final_gap: float
    failed: bool
    message: str


@dataclass
class McSummary:
    """All Monte Carlo outcomes plus per-case error time series."""

    cases: tuple[str, ...]
    n_runs: int
    base_seed: int
    times: NDArray
    errors: dict[str, NDArray]  # case -> (n_runs, n_times); NaN rows for failures
    records: tuple[McRunRecord, ...]


def _mc_config(base: SimConfig, case: str, run_index: int, base_seed: int) -> SimConfig:
    return replace(
        apply_case(base, case),
        seed=base_seed + run_index,
        initial_states=None,
    )


def _mc_worker(args: tuple[SimConfig, str, int]) -> tuple[str, int, NDArray, McRunRecord]:
    config, case, run_index = args
    try:
        traj, summary = run_episode(config)
    except GpConsensusError as exc:
        record = McRunRecord(
            case=case,
            run=run_index,
            seed=config.seed,
            final_error=float("nan"),
            trigger_counts=(),
            max_dataset_size=(),
            epsilon=float("nan"),
            domain_ok=False,
            gamma_ok=False,
            max_sigma_after=float("nan"),
            last_event_t=float("nan"),
            aux_mean_drift=float("nan"),
            aux_final_gap=float("nan"),
            failed=True,
            message=str(exc),
        )
        return case, run_index, np.array([]), record
    sigmas = [ev.sigma_after for ev in summary.events]
    aux_means = traj.x_bar.mean(axis=1)
    record = McRunRecord(
        case=case,
        run=run_index,
        seed=config.seed,
        final_error=summary.final_error,
        trigger_counts=summary.trigger_counts,
        max_dataset_size=summary.max_dataset_size,
        epsilon=summary.epsilon,
        domain_ok=summary.domain_ok,
        gamma_ok=summary.gamma_ok,
        max_sigma_after=max(sigmas) if sigmas else float("nan"),
        last_event_t=summary.events[-1].t if summary.events else float("nan"),
        aux_mean_drift=float(np.max(np.abs(aux_means - summary.x_bar_star))),
        aux_final_gap=float(
            np.linalg.norm(traj.x_bar[-1] - summary.x_bar_star)
        ),
        failed=False,
        message="",
    )
    return case, run_index, traj.err, record


def run_monte_carlo(
    base_config: SimConfig,
    n_runs: int,
    cases: tuple[str, ...] = ("a", "b", "c", "d"),
    jobs: int = 1,
) -> McSummary:
    """Seed-swept episodes per case with uniformly drawn initial states.

    Run k of every case uses seed base_seed + k, so all cases see the
    same initial conditions for the same run index. Failures are
    recorded per run, never fatal to the sweep.
    """
    if n_runs < 1:
        raise GpConsensusError(f"n_runs must be >= 1, got {n_runs}")
    tasks = [
        (_mc_config(base_config, case, k, base_config.seed), case, k)
        for case in cases
        for k in range(n_runs)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_mc_worker, tasks))
    else:
        raw = [_mc_worker(t) for t in tasks]
    raw.sort(key=lambda item: (item[0], item[1]))

    first = tasks[0][0]
    n_steps = int(round(first.t_end / first.dt))
    logged = range(0, n_steps, first.log_stride)
    times = np.array([k * first.dt for k in logged] + [n_steps * first.dt])

    errors: dict[str, NDArray] = {
        case: np.full((n_runs, times.size), np.nan) for case in cases
    }
    records = []
    for case, run_index, err_series, record in raw:
        records.append(record)
        if not record.failed and err_series.size == times.size:
            errors[case][run_index] = err_series
    return McSummary(
        cases=tuple(cases),
        n_runs=n_runs,
        base_seed=base_config.seed,
        times=times,
        errors=errors,
        records=tuple(records),
    )

"""Fixed-step closed-loop simulation and Monte Carlo orchestration.

One step is: freeze a snapshot of (x, x_bar); evaluate every agent's
trigger on its pre-update error bound; let each fired agent, in agent
order, take a measurement and grow its model; compute the auxiliary
rates and inputs of all agents from the snapshot and the post-update
posterior means; advance the coupled states one classical Runge-Kutta
step with the input held constant (zero-order hold). All randomness
flows from one SplitMix64 stream per episode, so a config (including
its seed) fully determines every output byte.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from .analysis import average_state, consensus_error
from .config import TRIGGER_FOR_LEARNING, SimConfig, config_hash, validate_config
from .control import (
    ControlGains,
    auxiliary_rate,
    check_domain_containment,
    control_conventional,
    control_proposed,
    epsilon_bound,
)
from .errors import ConfigError, GpConsensusError, OutOfDomain
from .gp import (
    BoundContext,
    GpModel,
    KernelParams,
    _grid_mean,
    _kernel,
    _sigma_upper,
    check_gamma_condition,
    domain_grid,
    estimate_lipschitz,
    shared_factor_means,
)
from .plants import PlantSpec, drift, estimate_lip_f, make_plant, measure
from .presets import apply_case
from .rng import SplitMix64
from .topology import Topology, build_topology
from .triggers import evaluate_trigger, trigger_threshold

LIP_GRID_STEP = 1e-3
# widest block of logged-row sigma solves in an offline run; every block
# of a split holds at least half of it
_LOGGED_SIGMA_BLOCK = 1024


def auxiliary_step_matrix(lap: NDArray, c_bar: float, dt: float) -> NDArray:
    """The increment D of one RK4 step of x_bar' = -c_bar L x_bar.

    RK4 on a linear system is its quartic Taylor step, so one step maps
    x_bar to x_bar + D x_bar with D = A + A^2/2 + A^3/6 + A^4/24 and
    A = -c_bar dt L. D is symmetrised, its off-diagonal entries are
    rounded to multiples of a power of two q, and each diagonal entry is
    minus its row's off-diagonal sum. Every partial sum of a row is then
    a multiple of q below 2^53 q, so it is exact: rows and columns of D
    sum to exactly 0.0 in any order. The rounding moves an entry by at
    most n * 2^-52 of the largest one.
    """
    a = (-c_bar * dt) * lap
    a2 = a @ a
    d = a + a2 / 2.0 + (a2 @ a) / 6.0 + (a2 @ a2) / 24.0
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    _, exp = math.frexp(lap.shape[0] * float(np.abs(d).max()))
    q = math.ldexp(1.0, exp - 52)
    d = np.round(d / q) * q
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def rk4_step(
    plant: PlantSpec,
    x: NDArray,
    u: NDArray,
    x_bar: NDArray,
    x_bar_step: NDArray,
    dt: float,
) -> tuple[NDArray, NDArray]:
    """One classical RK4 step of the agents and their auxiliary states.

    With u held, agent i follows its own scalar ODE x_i' = drift(x_i, u_i),
    and x_bar follows x_bar' = -c_bar L x_bar, which does not read x. So
    each agent takes a scalar step on Python floats, with the bits of one
    RK4 step of the concatenated system, and x_bar takes the RK4 step of
    its linear system as one product with ``auxiliary_step_matrix`` D, in
    increment form. That agrees with four linear stages to about 1e-15,
    and a consensus vector is an exact fixed point.
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    x_next = []
    for xi, ui in zip(x.tolist(), u.tolist()):
        k1 = drift(plant, xi, ui)
        k2 = drift(plant, xi + half * k1, ui)
        k3 = drift(plant, xi + half * k2, ui)
        k4 = drift(plant, xi + dt * k3, ui)
        x_next.append(xi + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    # D's rows sum to exactly zero, so shifting x_bar by its first entry
    # moves D x_bar only by rounding, and a consensus vector gives exactly 0
    return np.array(x_next), x_bar + x_bar_step @ (x_bar - x_bar[0])


# -- run assembly ------------------------------------------------------


@dataclass(frozen=True)
class RunContext:
    """Everything derived from a config that stays fixed during a run.

    ``x_bar_step`` is the ``auxiliary_step_matrix`` of the graph, c_bar
    and dt; it derives from the config, so equality and hashing skip it.
    ``trigger_mode`` is None for offline learning, which evaluates no rule.
    """

    config: SimConfig
    topology: Topology
    plant: PlantSpec
    gains: ControlGains
    kernel: KernelParams
    bound: BoundContext
    trigger_mode: str | None
    epsilon: float
    digest: str
    x_bar_step: NDArray = field(repr=False, compare=False)


@functools.lru_cache(maxsize=None)
def _auto_lip_f(plant_name: str, plant_params: tuple[tuple[str, float], ...]) -> float:
    """The automatic lip_f: one grid scan of f_true per plant per process.

    The plant name and its parameters fully determine the scan, and a
    sweep prepares every run of a plant with the same two values.
    """
    plant = make_plant(plant_name, **dict(plant_params))
    return estimate_lip_f(plant.f_true, plant.domain_lo, plant.domain_hi)


class _GridFacts:
    """What the end-of-run gamma check reads of one factor on one grid.

    That is the kernel matrix ``kq`` of the factor's inputs against the
    grid, ``gp._sigma_upper``'s probe bound, and (lip_sigma, sigma_min) of
    the full-grid sigma solve, or None until it is solved. None of them
    reads the targets, so they hold for every model that shares the
    factor (``GpModel.same_factor``); each is computed on first need and
    kept. A raised NumericalBreakdown keeps nothing.
    """

    def __init__(self, model: GpModel, grid: NDArray):
        self.model = model
        self.grid = grid
        self.sigma: tuple[float, float] | None = None

    @functools.cached_property
    def kq(self) -> NDArray:
        return _kernel(self.model.kernel, self.model.inputs, self.grid)

    @functools.cached_property
    def sigma_upper(self) -> float | None:
        return _sigma_upper(self.model, self.grid, self.kq)


@functools.lru_cache(maxsize=4)
def _offline_factor_memo(
    kernel: KernelParams,
    sigma_n: float,
    domain_lo: float,
    domain_hi: float,
    size: int,
    max_points: int,
) -> _GridFacts:
    """The shared offline factor of a key, with its grid facts, once per process.

    Offline inputs are ``size`` evenly spaced points over the domain, so
    the key fixes the factor; the facts are on the run's domain grid. The
    base model holds zero targets and never reaches a run: agents get
    ``with_outputs`` models of it. Pool workers forked after an entry is
    made inherit it. An entry holds an M x M factor and, once the gamma
    check needs it, an M x G kernel matrix (G = 3001 grid points on the
    stock domain): 32 MB at M = 1000, so the 4 entries kept hold at most
    128 MB there.
    """
    xs = np.linspace(domain_lo, domain_hi, size)
    base = GpModel.from_data(kernel, sigma_n, xs, np.zeros(size), max_points=max_points)
    return _GridFacts(base, domain_grid(domain_lo, domain_hi, LIP_GRID_STEP))


def _offline_factor(run: RunContext) -> _GridFacts | None:
    """The memoised offline factor of a run, or None without offline data."""
    cfg = run.config
    if cfg.offline_dataset_size == 0:
        return None
    return _offline_factor_memo(
        run.kernel,
        cfg.sigma_n,
        run.plant.domain_lo,
        run.plant.domain_hi,
        cfg.offline_dataset_size,
        cfg.max_points,
    )


def prepare_run(config: SimConfig) -> RunContext:
    """Validate a config against itself and its plant; derive the fixed run data."""
    validate_config(config)
    topology = build_topology(config.n_agents, config.edges)
    plant = make_plant(config.plant, **dict(config.plant_params))
    for i, x0 in enumerate(config.initial_states or ()):
        if not plant.domain_lo <= x0 <= plant.domain_hi:
            raise ConfigError(
                f"initial state of agent {i + 1} is {x0!r}, outside "
                f"[{plant.domain_lo}, {plant.domain_hi}]"
            )
    gains = ControlGains(c=config.c, c_bar=config.c_bar)
    kernel = KernelParams(sigma_f=config.sigma_f, length_scale=config.length_scale)
    lip_f = (
        config.lip_f
        if config.lip_f is not None
        else _auto_lip_f(config.plant, config.plant_params)
    )
    bound = BoundContext(
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
        digest=config_hash(config),
        x_bar_step=auxiliary_step_matrix(topology.laplacian, config.c_bar, config.dt),
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
    """Diagnostics of one step, for logging.

    eta and rho are 0 for offline learning, which evaluates no trigger;
    ``run_episode`` fills the logged eta of such a run after its last step.
    """

    u: NDArray
    rho: NDArray
    eta: NDArray
    fired: NDArray
    events: tuple[TriggerEvent, ...]


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
    # every agent samples the hidden term at the shared factor's inputs,
    # so all share one factor; each draws its own noise, in agent order
    shared = _offline_factor(run)
    models: list[GpModel] = []
    for _ in range(n):
        if shared is not None:
            xs = shared.model.inputs.tolist()
            ys = [run.plant.f_true(x) + rng.normal(0.0, cfg.sigma_n) for x in xs]
            model = shared.model.with_outputs(ys)
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


def _query_triggers(
    run: RunContext, models: list[GpModel], x: NDArray, x_bar: NDArray, screen: bool = False
) -> tuple[NDArray, NDArray, NDArray]:
    """One posterior query per agent, then every trigger: (mu, eta, rho).

    eta = 2 sqrt(beta) sigma(x) is the bound of the models as passed in,
    so callers query before any update. This is the only place a trigger
    is evaluated: every step of online learning and its terminal row go
    through it. Offline learning evaluates no trigger and never calls it
    (``step``, ``run_episode``). With screen set, each query gets its
    agent's threshold and may return a certified upper bound on sigma in
    place of sigma where that bound already keeps the trigger silent
    (``GpModel.posterior``): every fire decision and mean is the same,
    while eta and rho of such an agent are its bound's.
    """
    threshold = trigger_threshold(
        run.trigger_mode,
        x,
        x_bar,
        run.config.c,
        run.topology.n_agents,
        run.bound.eta_bar_lower,
        run.epsilon,
    )
    scale = 2.0 * run.bound.root_beta
    if screen:
        post = [
            m.posterior(xi, (scale, limit))
            for m, xi, limit in zip(models, x.tolist(), threshold.tolist())
        ]
    else:
        post = [m.posterior(xi) for m, xi in zip(models, x.tolist())]
    mu, sigma = np.array(post).T
    eta = scale * sigma
    return mu, eta, evaluate_trigger(eta, threshold)


def step(state: SimState, run: RunContext, rng: SplitMix64, need_eta: bool = True) -> StepInfo:
    """Advance one control period; returns this step's diagnostics.

    Where a trigger rule is active (online learning), each agent queries
    its model once, and that query yields both eta and f_hat; a fired
    agent's update reuses its solve. With need_eta set (the step is
    logged) it is a full posterior; otherwise it is screened, so eta may
    be a bound that proves the agent silent (``_query_triggers``). A
    fired agent takes f_hat and sigma_after from the post-update posterior
    its update returns. Offline learning evaluates no trigger: the models
    share one factor or are all empty, f_hat is one kernel block against
    it (``gp.shared_factor_means``), no sigma is solved, and eta and rho
    stay 0 whether or not the step is logged.
    Raises OutOfDomain when a state leaves the plant domain or becomes
    non-finite.
    """
    cfg = run.config
    n = run.topology.n_agents
    x_snap = state.x.copy()
    xb_snap = state.x_bar.copy()
    fired = np.zeros(n, dtype=np.int64)
    events: list[TriggerEvent] = []

    if run.trigger_mode is not None:
        mu, eta, rho = _query_triggers(
            run, state.models, x_snap, xb_snap, screen=not need_eta
        )
        fired_agents = [i for i, r in enumerate(rho.tolist()) if r > 0.0]
        for i in fired_agents:
            model = state.models[i]
            if cfg.measurement_mode == "oracle" or state.step_index == 0:
                xdot = drift(run.plant, x_snap[i], state.u_prev[i])
            else:
                xdot = (x_snap[i] - state.x_prev[i]) / cfg.dt
            noise = rng.normal(0.0, cfg.sigma_n)
            y = measure(run.plant, x_snap[i], state.u_prev[i], xdot, noise)
            mu[i], sigma_after = model.add_point(x_snap[i], y)
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
    else:
        mu = shared_factor_means(state.models, x_snap)
        eta = np.zeros(n)
        rho = np.zeros(n)

    if cfg.predictor == "gp":
        f_hat = mu
    else:
        f_hat = np.array([run.plant.f_true(xi) for xi in x_snap.tolist()]) - cfg.eps_bias

    if cfg.controller == "proposed":
        rate = auxiliary_rate(xb_snap, run.topology, run.gains)
        u = control_proposed(
            x_snap, xb_snap, f_hat, run.topology, run.plant, run.gains, rate
        )
    else:
        u = control_conventional(x_snap, f_hat, run.topology, run.plant, run.gains)

    plant = run.plant
    state.x_prev = x_snap
    state.x, state.x_bar = rk4_step(plant, state.x, u, state.x_bar, run.x_bar_step, cfg.dt)
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

    case_label: str  # "custom" for a config with no label
    seed: int
    final_error: float
    trigger_counts: tuple[int, ...]
    max_dataset_size: tuple[int, ...]
    epsilon: float
    x_bar_star: float
    bound: BoundContext
    domain_ok: bool
    gamma_ok: bool
    config_digest: str
    events: tuple[TriggerEvent, ...]


def _check_gamma(run: RunContext, models: list[GpModel]) -> bool:
    """Whether every model meets the bound-validity (gamma) condition.

    The check runs on the run's domain grid, in agent order, and stops at
    the first failure. Models on the run's memoised offline factor share
    the ``_GridFacts`` kept with it: one grid kernel matrix and one sigma
    solve, so one lip_sigma, for all of them and for later runs on that
    factor; each model's mean, and so its lip_mu, is still its own. Every
    other model owns its factor and builds its own facts, and the
    previous model's are dropped first.

    Before a factor's full-grid sigma is solved, a failure is proven where
    it can be: ``check_gamma_condition`` with lip_sigma = 0 has no larger
    gamma, in floating point too, and ``gp._sigma_upper`` is at or above
    the smallest sigma the full solve would give. When that check fails,
    the full check would fail, and the O(M^2) solve per grid point is
    skipped. Otherwise the full check decides. The verdict is the same
    either way; only a negative variance elsewhere on the grid of a model
    so proven to fail is no longer raised.
    """
    bound = run.bound
    shared = _offline_factor(run)
    if shared is not None:
        grid = shared.grid
    else:
        grid = domain_grid(run.plant.domain_lo, run.plant.domain_hi, LIP_GRID_STEP)
    for model in models:
        if shared is not None and model.same_factor(shared.model):
            facts = shared
        else:
            facts = _GridFacts(model, grid)  # builds its kernel matrix on first use
        lip_mu = estimate_lipschitz(grid, _grid_mean(model, facts.kq))
        if facts.sigma is None:
            sigma_up = facts.sigma_upper
            if sigma_up is not None and not check_gamma_condition(bound, lip_mu, 0.0, sigma_up):
                return False
            _, sigma = facts.model.posterior_grid(grid, _kq=facts.kq)
            facts.sigma = estimate_lipschitz(grid, sigma), float(np.min(sigma))
        if not check_gamma_condition(bound, lip_mu, *facts.sigma):
            return False
    return True


def run_episode(config: SimConfig) -> tuple[Trajectory, EpisodeSummary]:
    """Integrate one episode over [0, t_end] and summarize it.

    Offline learning reads no eta while it runs, and its models never
    change, so the eta of every logged row and of the terminal row is
    solved on the shared factor at all logged states after the last step,
    in blocks of at most _LOGGED_SIGMA_BLOCK columns, so that the memory
    held does not grow with t_end. A column's sigma has the same bits in
    any block of two or more columns. A negative variance there raises
    with t = t_end.
    """
    run = prepare_run(config)
    cfg = run.config
    case_label = cfg.case_label or "custom"
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
        if run.trigger_mode is not None:
            _, traj.eta[row], traj.rho[row] = _query_triggers(
                run, state.models, state.x, state.x_bar
            )
        else:
            # offline models share one factor, so its solves serve every row
            xs = traj.x.ravel()
            blocks = np.array_split(xs, -(-xs.size // _LOGGED_SIGMA_BLOCK))
            sigma = np.concatenate([state.models[0].posterior_grid(b)[1] for b in blocks])
            traj.eta[:] = (2.0 * run.bound.root_beta * sigma).reshape(traj.x.shape)
        traj.dataset_size[row] = [m.size for m in state.models]
        gamma_ok = _check_gamma(run, state.models)
    except GpConsensusError as exc:
        raise type(exc)(f"{exc} [case={case_label} seed={cfg.seed} t={state.t:.6g}]") from exc

    summary = EpisodeSummary(
        case_label=case_label,
        seed=cfg.seed,
        final_error=float(traj.err[-1]),
        trigger_counts=tuple(int(v) for v in state.trigger_counts),
        max_dataset_size=tuple(m.size for m in state.models),
        epsilon=run.epsilon,
        x_bar_star=x_bar_star,
        bound=run.bound,
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
    """Per-(case, run) outcome; a failed run keeps the defaults."""

    case: str
    run: int
    seed: int
    final_error: float = math.nan
    trigger_counts: tuple[int, ...] = ()
    max_dataset_size: tuple[int, ...] = ()
    epsilon: float = math.nan
    domain_ok: bool = False
    gamma_ok: bool = False
    failed: bool = False
    message: str = ""


@dataclass
class McSummary:
    """All Monte Carlo outcomes plus per-case error time series."""

    cases: tuple[str, ...]
    n_runs: int
    times: NDArray
    errors: dict[str, NDArray]  # case -> (n_runs, n_times); NaN rows for failures
    records: tuple[McRunRecord, ...]


def _mc_config(base: SimConfig, case: str, run_index: int, base_seed: int) -> SimConfig:
    return replace(
        apply_case(base, case),
        seed=base_seed + run_index,
        initial_states=None,
    )


def _mc_worker(args: tuple[SimConfig, str, int]) -> tuple[NDArray, McRunRecord]:
    config, case, run_index = args
    try:
        traj, summary = run_episode(config)
    except GpConsensusError as exc:
        return np.array([]), McRunRecord(
            case, run_index, config.seed, failed=True, message=str(exc)
        )
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
    )
    return traj.err, record


def run_monte_carlo(
    base_config: SimConfig,
    n_runs: int,
    cases: tuple[str, ...] = ("a", "b", "c", "d"),
    jobs: int = 1,
) -> McSummary:
    """Seed-swept episodes per case with uniformly drawn initial states.

    Run k of every case uses seed base_seed + k, so all cases see the
    same initial conditions for the same run index. Records follow the
    order of ``cases``, then run index, for any ``jobs``.

    Before any run starts, the sweep is checked: n_runs and jobs must be
    at least 1 and cases must name at least one case, none twice
    (ConfigError), and ``prepare_run`` must accept the base config under
    each case (an unknown case raises InvalidParam). These probes also
    fill the automatic lip_f memo and the offline factor memo that pool
    workers inherit; cases a and c share one factor. A run that fails
    after that is recorded as failed, never fatal to the sweep.
    """
    if n_runs < 1:
        raise ConfigError(f"runs must be >= 1, got {n_runs}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if not cases:
        raise ConfigError("cases lists no case")
    if len(set(cases)) != len(cases):
        raise ConfigError(f"cases lists a case more than once: {tuple(cases)}")
    for case in cases:
        run = prepare_run(apply_case(base_config, case))
        # a factor that cannot be built fails that case's runs, not the sweep
        with contextlib.suppress(GpConsensusError):
            _offline_factor(run)
    tasks = [
        (_mc_config(base_config, case, k, base_config.seed), case, k)
        for case in cases
        for k in range(n_runs)
    ]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here: the pool module costs every process about 20 ms,
        # and only a sweep with more than one worker uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_mc_worker, tasks))
    else:
        raw = [_mc_worker(t) for t in tasks]

    first = tasks[0][0]
    n_steps = int(round(first.t_end / first.dt))
    logged = range(0, n_steps, first.log_stride)
    times = np.array([k * first.dt for k in logged] + [n_steps * first.dt])

    errors: dict[str, NDArray] = {
        case: np.full((n_runs, times.size), np.nan) for case in cases
    }
    for err_series, record in raw:
        if not record.failed:
            errors[record.case][record.run] = err_series
    return McSummary(
        cases=tuple(cases),
        n_runs=n_runs,
        times=times,
        errors=errors,
        records=tuple(record for _, record in raw),
    )

"""Property tests: array laws, triggers, the RK4 step and the gamma check
against oracles.

Graphs are random connected graphs on 4-9 agents: a random spanning tree
in which agent 0 has at least three neighbors, plus random extra edges,
kept only when the degrees are irregular. Runs are derandomized so the
suite is reproducible.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpconsensus.control import (
    ControlGains,
    auxiliary_rate,
    control_conventional,
    control_proposed,
)
from gpconsensus.engine import (
    LIP_GRID_STEP,
    _check_gamma,
    auxiliary_step_matrix,
    init_state,
    prepare_run,
    rk4_step,
)
from gpconsensus.gp import GpModel, KernelParams, domain_grid, shared_factor_means
from gpconsensus.plants import (
    PlantSpec,
    drift,
    make_affine_plant,
    make_benchmark_plant,
    make_sinusoidal_plant,
)
from gpconsensus.presets import case_preset
from gpconsensus.rng import SplitMix64
from gpconsensus.topology import build_topology
from gpconsensus.triggers import MODES, evaluate_trigger, trigger_threshold
from oracles import (
    classify_agent,
    gamma_ok_every_model,
    laws_per_agent,
    rho_naive,
    rho_proposed,
    rho_relaxed,
    rho_scalar,
)
from oracles import rk4_step as rk4_step_oracle

PROPERTY_SETTINGS = settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)

STATE = st.floats(-1.5, 1.5)
X_BAR_TOL = 4.0  # agreement of the one-product x_bar step with RK4's stages, in eps
ETA_BAR = st.floats(1e-3, 0.5)


@st.composite
def irregular_graphs(draw):
    n = draw(st.integers(4, 9))
    edges = {(1, 2), (1, 3), (1, 4)}
    for k in range(5, n + 1):
        edges.add((draw(st.integers(1, k - 1)), k))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    top = build_topology(n, sorted(edges))
    assume(len({len(nb) for nb in top.neighbors}) > 1)
    return top


def agent_vector(top, elements=STATE):
    return st.lists(elements, min_size=top.n_agents, max_size=top.n_agents).map(np.array)


def curved_plant() -> PlantSpec:
    """Nonzero h and state-dependent g, so every term of the laws is exercised."""
    return PlantSpec(
        h=lambda x: 0.3 * x - 0.1 * x * x,
        g=lambda x: 2.0 + 0.5 * math.sin(3.0 * x),
        f_true=lambda x: math.cos(x),
        domain_lo=-1.5,
        domain_hi=1.5,
    )


@PROPERTY_SETTINGS
@given(data=st.data(), c=st.floats(0.1, 5.0), c_bar=st.floats(0.1, 5.0))
def test_array_laws_equal_per_agent_oracle(data, c, c_bar):
    top = data.draw(irregular_graphs())
    x = data.draw(agent_vector(top))
    x_bar = data.draw(agent_vector(top))
    f_hat = data.draw(agent_vector(top, st.floats(-10.0, 10.0)))
    gains = ControlGains(c=c, c_bar=c_bar)
    for plant in (make_benchmark_plant(), curved_plant()):
        rate = auxiliary_rate(x_bar, top, gains)
        u_conv = control_conventional(x, f_hat, top, plant, gains)
        u_prop = control_proposed(x, x_bar, f_hat, top, plant, gains, rate)
        ref_rate, ref_conv, ref_prop = laws_per_agent(top, plant, c, c_bar, x, x_bar, f_hat)
        assert rate.tolist() == ref_rate
        assert u_conv.tolist() == ref_conv
        assert u_prop.tolist() == ref_prop


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    c_bar=st.floats(0.1, 5.0),
    dt=st.floats(1e-4, 1e-2),
    coeffs=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(0.1, 20.0)),
)
def test_split_rk4_step_equals_concatenated_oracle(data, c_bar, dt, coeffs):
    # the agents stepped apart give the bits of one RK4 step of the
    # concatenated system with the input held; x_bar, stepped by one
    # product, agrees with its four stages within X_BAR_TOL relative to
    # max |x_bar|: each side rounds its last addition by up to eps/2, and
    # the stages and the product add less than that again (2.4 eps seen
    # in 20,000 random cases of these ranges)
    top = data.draw(irregular_graphs())
    n = top.n_agents
    x = data.draw(agent_vector(top))
    x_bar = data.draw(agent_vector(top))
    u = data.draw(agent_vector(top, st.floats(-10.0, 10.0)))
    lap = top.laplacian
    step_matrix = auxiliary_step_matrix(lap, c_bar, dt)
    a, b, freq = coeffs
    plants = (
        make_benchmark_plant(),
        make_affine_plant(f_offset=a, f_slope=b),
        make_sinusoidal_plant(amplitude=a, frequency=freq, offset=b),
    )
    for plant in plants:

        def rhs(vec):
            dx = np.array([drift(plant, float(vec[i]), float(u[i])) for i in range(n)])
            return np.concatenate([dx, -c_bar * (lap @ vec[n:])])

        ref = rk4_step_oracle(rhs, np.concatenate([x, x_bar]), dt)
        new_x, new_x_bar = rk4_step(plant, x, u, x_bar, step_matrix, dt)
        assert new_x.tobytes() == ref[:n].tobytes()
        tol = X_BAR_TOL * np.finfo(float).eps * float(np.max(np.abs(x_bar)))
        assert np.max(np.abs(new_x_bar - ref[n:])) <= tol


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    c_bar=st.floats(0.1, 5.0),
    dt=st.floats(1e-4, 1e-2),
    level=STATE,
)
def test_auxiliary_step_fixes_consensus_and_conserves_the_mean(data, c_bar, dt, level):
    top = data.draw(irregular_graphs())
    n = top.n_agents
    step_matrix = auxiliary_step_matrix(top.laplacian, c_bar, dt)
    assert np.array_equal(step_matrix, step_matrix.T)
    assert step_matrix.sum(axis=1).tolist() == [0.0] * n
    assert [math.fsum(row) for row in step_matrix] == [0.0] * n
    plant = make_benchmark_plant()
    u = np.zeros(n)
    consensus = np.full(n, level)
    _, stepped = rk4_step(plant, consensus, u, consensus, step_matrix, dt)
    assert stepped.tobytes() == consensus.tobytes()
    # the exact sum of the increments is 0, since the columns of D sum to
    # exactly 0; what is left is the rounding of x_bar + D y, at most half
    # an ulp per entry, and of the n-term products D y, with y = x_bar - x_bar[0]
    x_bar = data.draw(agent_vector(top))
    _, stepped = rk4_step(plant, x_bar, u, x_bar, step_matrix, dt)
    y = np.abs(x_bar - x_bar[0])
    bound = np.finfo(float).eps * (
        math.fsum(np.abs(x_bar)) + n * math.fsum(np.abs(step_matrix) @ y)
    )
    assert abs(math.fsum(np.concatenate([stepped, -x_bar]))) <= bound


@PROPERTY_SETTINGS
@given(data=st.data(), c_bar=st.floats(0.1, 5.0))
def test_auxiliary_rates_sum_to_zero(data, c_bar):
    # each edge enters two rates with opposite signs, so the auxiliary mean
    # is conserved; the tolerance is the rounding of the slot-by-slot sums
    top = data.draw(irregular_graphs())
    x_bar = data.draw(agent_vector(top))
    rate = auxiliary_rate(x_bar, top, ControlGains(c=1.0, c_bar=c_bar))
    scale = c_bar * sum(abs(x_bar[i] - x_bar[j]) for i, j in top.edges) * 2.0
    max_degree = top.gather.shape[0]
    tol = 2.0 * (max_degree + 1) * np.finfo(float).eps * scale
    assert abs(math.fsum(rate)) <= tol


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    c=st.floats(0.1, 5.0),
    eta_bar=ETA_BAR,
    epsilon=st.floats(1e-3, 3.0),
)
def test_array_rho_equals_scalar_formula(data, c, eta_bar, epsilon):
    n = data.draw(st.integers(1, 9))
    vec = st.lists(STATE, min_size=n, max_size=n).map(np.array)
    x, x_bar = data.draw(vec), data.draw(vec)
    eta = data.draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n).map(np.array))
    for mode in MODES:
        rho = evaluate_trigger(
            mode, eta, trigger_threshold(mode, x, x_bar, c, n, eta_bar, epsilon)
        )
        expected = [
            rho_scalar(mode, float(e), float(xi), float(xbi), c, n, eta_bar, epsilon)
            for e, xi, xbi in zip(eta, x, x_bar)
        ]
        assert rho.tolist() == expected


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    c=st.floats(0.1, 5.0),
    eta_bar=ETA_BAR,
    epsilon=st.floats(1e-3, 3.0),
)
def test_eta_minus_threshold_has_the_rho_expression_bits(data, c, eta_bar, epsilon):
    # each rule's threshold gives rho = eta - threshold with the bits of
    # the rule's own one-expression rho, on agent arrays and on scalars
    n = data.draw(st.integers(1, 9))
    vec = st.lists(STATE, min_size=n, max_size=n).map(np.array)
    x, x_bar = data.draw(vec), data.draw(vec)
    eta = data.draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n).map(np.array))
    rules = {
        "proposed": lambda e, xi, xbi: rho_proposed(e, xi, xbi, c, n, eta_bar),
        "naive": lambda e, xi, xbi: rho_naive(e, eta_bar),
        "relaxed": lambda e, xi, xbi: rho_relaxed(e, xi, xbi, c, n, eta_bar, epsilon),
    }
    for mode, rule in rules.items():
        got = eta - trigger_threshold(mode, x, x_bar, c, n, eta_bar, epsilon)
        assert got.tobytes() == rule(eta, x, x_bar).tobytes()
        for e, xi, xbi in zip(eta.tolist(), x.tolist(), x_bar.tolist()):
            one = e - trigger_threshold(mode, xi, xbi, c, n, eta_bar, epsilon)
            assert np.float64(one).tobytes() == np.float64(rule(e, xi, xbi)).tobytes()


@PROPERTY_SETTINGS
@given(
    eta=st.floats(0.0, 10.0),
    x=STATE,
    x_bar=STATE,
    c=st.floats(0.1, 5.0),
    n_agents=st.integers(1, 9),
    eta_bar=ETA_BAR,
)
def test_trigger_partition(eta, x, x_bar, c, n_agents, eta_bar):
    region = classify_agent(eta, x, x_bar, c, n_agents, eta_bar)
    gap = c * abs(x - x_bar)
    threshold = trigger_threshold("proposed", x, x_bar, c, n_agents, eta_bar)
    fires = evaluate_trigger("proposed", eta, threshold) > 0.0
    if gap <= (math.sqrt(n_agents - 1) + 1.0) * eta_bar:
        assert region == "S1"
        if not fires:
            # a silent agent in S1 already has its bound at the floor
            assert eta <= eta_bar * (1.0 + 1e-12)
    elif fires:
        assert region == "S2"
    else:
        assert region == "S3"
        # a silent agent in S3 has disagreement dominating its bound
        assert gap * gap >= (eta * eta + (n_agents - 1) * eta_bar**2) * (1.0 - 1e-12)


GAMMA_RUN = prepare_run(case_preset("c"))
GAMMA_GRID = domain_grid(GAMMA_RUN.plant.domain_lo, GAMMA_RUN.plant.domain_hi, LIP_GRID_STEP)


@st.composite
def gp_models(draw, kernel, noise):
    """A model of at most 60 points: spread or clustered inputs, batch or
    online factor, flat, steep or random targets."""
    n = draw(st.integers(0, 60))
    lo = draw(st.floats(-1.5, 1.4))
    width = draw(st.sampled_from((0.02, 0.3, 3.0)))
    xs = draw(st.lists(st.floats(lo, min(lo + width, 1.5)), min_size=n, max_size=n))
    xs = np.array(xs)
    shape = draw(st.sampled_from(("flat", "steep", "random")))
    if shape == "flat":
        ys = np.full(n, draw(st.floats(-1.0, 1.0)))
    elif shape == "steep":
        ys = draw(st.sampled_from((1.0, 100.0))) * np.sin(xs / kernel.length_scale)
    else:
        ys = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        return GpModel.from_data(kernel, noise, xs, ys)
    model = GpModel(kernel, noise)
    for x, y in zip(xs.tolist(), ys.tolist()):
        model.add_point(x, y)
    return model


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    length_scale=st.sampled_from((0.05, 0.3)),
    noise=st.sampled_from((0.01, 0.05)),
    lip_f=st.floats(0.0, 40.0),
)
def test_gamma_check_equals_every_model_oracle(data, length_scale, noise, lip_f):
    # shared factors come from with_outputs on the previous model, so the
    # check reuses a full-grid sigma or probes a fresh factor, and the
    # probe's proof of failure must never change the verdict; an add_point
    # on the new model or on the one it shares with ends the sharing; lip_f
    # sweeps gamma across the probed sigma, near ties included
    run = replace(GAMMA_RUN, bound=replace(GAMMA_RUN.bound, lip_f=lip_f))
    kernel = KernelParams(sigma_f=1.0, length_scale=length_scale)
    models = []
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(("own", "shared", "updated"))) if models else "own"
        if kind == "own":
            models.append(data.draw(gp_models(kernel, noise)))
            continue
        m = models[-1].size
        ys = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m))
        models.append(models[-1].with_outputs(ys))
        if kind == "updated":
            writer = models[data.draw(st.sampled_from((-1, -2)))]
            writer.add_point(data.draw(st.floats(-1.5, 1.5)), data.draw(st.floats(-2.0, 2.0)))
    expected = gamma_ok_every_model(run.bound, models, GAMMA_GRID)
    assert _check_gamma(run, models, GAMMA_GRID) is expected


@PROPERTY_SETTINGS
@given(
    size=st.sampled_from((0, 1, 150)),
    length_scale=st.sampled_from((0.02, 0.05, 0.3)),
    seed=st.integers(0, 2**32 - 1),
    xs=st.lists(STATE, min_size=4, max_size=4),
)
def test_kernel_block_means_equal_posterior_means(size, length_scale, seed, xs):
    # the offline agents of a run share one memoised factor of 0, 1 or 150
    # points; the block's means have the bits of one posterior per agent
    cfg = replace(
        case_preset("c"), offline_dataset_size=size, length_scale=length_scale, seed=seed
    )
    run = prepare_run(cfg)
    models = init_state(run, SplitMix64(seed)).models
    means = shared_factor_means(models, np.array(xs))
    assert means.tolist() == [model.posterior(x)[0] for model, x in zip(models, xs)]

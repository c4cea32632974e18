"""Independent reference implementations used only by tests.

Everything here is deliberately naive: dense matrices, explicit loops,
no factorizations shared with the library code. Agreement between the
package and these references is the point of the comparison, so the two
sides must not share numerics.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular

from gpconsensus.errors import InvalidParam, OutOfDomain
from gpconsensus.gp import check_gamma_condition, estimate_lipschitz


def solve_dense(a, b):
    """Gaussian elimination with partial pivoting, written out longhand."""
    a = np.array(a, dtype=float)
    rhs = np.array(b, dtype=float)
    n = a.shape[0]
    aug = np.hstack([a, rhs.reshape(n, -1)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if aug[pivot, col] == 0.0:
            raise ZeroDivisionError("singular matrix in reference solver")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(col + 1, n):
            aug[row] = aug[row] - aug[row, col] * aug[col]
    x = np.zeros_like(aug[:, n:])
    for row in range(n - 1, -1, -1):
        acc = aug[row, n:].copy()
        for col in range(row + 1, n):
            acc -= aug[row, col] * x[col]
        x[row] = acc
    return x.reshape(rhs.shape)


def se_kernel(sigma_f, length_scale, x, x2):
    d = x - x2
    return sigma_f**2 * math.exp(-(d * d) / (2.0 * length_scale**2))


def gp_posterior_reference(sigma_f, length_scale, noise_std, xs, ys, q):
    """Posterior mean/std by dense solve of the regularized Gram system."""
    xs = list(xs)
    ys = np.asarray(ys, dtype=float)
    m = len(xs)
    if m == 0:
        return 0.0, sigma_f
    gram = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            gram[i, j] = se_kernel(sigma_f, length_scale, xs[i], xs[j])
        gram[i, i] += noise_std**2
    kq = np.array([se_kernel(sigma_f, length_scale, xi, q) for xi in xs])
    z = solve_dense(gram, ys)
    w = solve_dense(gram, kq)
    mu = float(kq @ z)
    var = sigma_f**2 - float(kq @ w)
    return mu, math.sqrt(max(var, 0.0))


def sample_gp_prior(sigma_f, length_scale, grid, normals):
    """Exact multivariate-normal prior draw on a grid, jittered 1e-10."""
    grid = np.asarray(grid, dtype=float)
    diff = grid[:, None] - grid[None, :]
    cov = sigma_f**2 * np.exp(-(diff * diff) / (2.0 * length_scale**2))
    cov[np.diag_indices(grid.size)] += 1e-10
    lower = np.linalg.cholesky(cov)
    return lower @ np.asarray(normals, dtype=float)


def solve_lower_strided(model, b):
    """L^-1 b by ``solve_triangular`` on the ``[:m, :m]`` view of the buffer.

    The library's earlier form: scipy copies the factor whenever the view
    is strided (capacity > m). The in-place solve must match it bit for bit.
    """
    m = model.size
    return solve_triangular(model._chol[:m, :m], b, lower=True, check_finite=False)


# -- per-agent control and trigger formulas ---------------------------
#
# One agent at a time on Python floats, neighbor sums by the builtin sum
# in neighbor order: the form the array laws and rho functions must match
# bit for bit.


def auxiliary_rate_agent(x_bar, neighbor_x_bar, c_bar):
    """-c_bar * sum_j (x_bar_i - x_bar_j)."""
    return -c_bar * sum(x_bar - xbj for xbj in neighbor_x_bar)


def _checked_gain(plant, x):
    gain = plant.g(x)
    if abs(gain) < plant.g_min:
        raise ZeroDivisionError(f"|g({x})| below g_min")
    return gain


def control_conventional_agent(plant, c, x, neighbor_x, f_hat):
    """-(h(x) + f_hat + c * sum_j (x_i - x_j)) / g(x)."""
    gain = _checked_gain(plant, x)
    consensus = sum(x - xj for xj in neighbor_x)
    return -(plant.h(x) + f_hat + c * consensus) / gain


def control_proposed_agent(plant, c, x, x_bar, neighbor_x, neighbor_x_bar, f_hat, rate):
    """-(h(x) + f_hat + c (sum_j (xt_i - xt_j) + xt_i) - rate) / g(x), xt = x - x_bar."""
    gain = _checked_gain(plant, x)
    xt = x - x_bar
    consensus = sum(xt - (xj - xbj) for xj, xbj in zip(neighbor_x, neighbor_x_bar))
    return -(plant.h(x) + f_hat + c * (consensus + xt) - rate) / gain


def laws_per_agent(topology, plant, c, c_bar, x, x_bar, f_hat):
    """(auxiliary rates, conventional inputs, proposed inputs), agent by agent."""
    rates, conventional, proposed = [], [], []
    for i, nbr in enumerate(topology.neighbors):
        nx = [float(x[j]) for j in nbr]
        nxb = [float(x_bar[j]) for j in nbr]
        xi, xbi, fi = float(x[i]), float(x_bar[i]), float(f_hat[i])
        rate = auxiliary_rate_agent(xbi, nxb, c_bar)
        rates.append(rate)
        conventional.append(control_conventional_agent(plant, c, xi, nx, fi))
        proposed.append(control_proposed_agent(plant, c, xi, xbi, nx, nxb, fi, rate))
    return rates, conventional, proposed


def rho_proposed(eta, x, x_bar, c, n_agents, eta_bar_lower):
    """Disagreement-aware trigger value, as one expression:
    rho = eta - max{ c|x - x_bar| - sqrt(N-1) eta_bar, eta_bar }."""
    gap = c * np.abs(x - x_bar) - math.sqrt(n_agents - 1) * eta_bar_lower
    return eta - np.maximum(gap, eta_bar_lower)


def rho_naive(eta, eta_bar_lower):
    """Always-learn trigger value: rho = eta - eta_bar."""
    return eta - eta_bar_lower


def rho_relaxed(eta, x, x_bar, c, n_agents, eta_bar_lower, epsilon):
    """Relaxed trigger value, as one expression:
    rho = eta - ( (1/c) max{|x - x_bar| - epsilon/sqrt(N), 0} + eta_bar )."""
    slack = np.maximum(np.abs(x - x_bar) - epsilon / math.sqrt(n_agents), 0.0) / c
    return eta - (slack + eta_bar_lower)


def rho_scalar(mode, eta, x, x_bar, c, n_agents, eta_bar, epsilon):
    """Trigger value of one agent from the scalar formula of each rule."""
    if mode == "proposed":
        gap = c * abs(x - x_bar) - math.sqrt(n_agents - 1) * eta_bar
        return eta - max(gap, eta_bar)
    if mode == "naive":
        return eta - eta_bar
    if mode == "relaxed":
        slack = max(abs(x - x_bar) - epsilon / math.sqrt(n_agents), 0.0) / c
        return eta - (slack + eta_bar)
    if mode == "none":
        return 0.0
    raise ValueError(mode)


# -- end-of-run bound-validity check ----------------------------------


def gamma_ok_every_model(bound, models, grid):
    """The gamma check with one full grid posterior per model, every model.

    No sigma is shared between models and no model is skipped after a
    failure: the form the engine's shared, early-stopping check must match.
    """
    verdicts = []
    for model in models:
        mu, sigma = model.posterior_grid(grid)
        lip_mu, lip_sigma = estimate_lipschitz(grid, mu), estimate_lipschitz(grid, sigma)
        verdicts.append(check_gamma_condition(bound, lip_mu, lip_sigma, float(np.min(sigma))))
    return all(verdicts)


# -- generic integrator -----------------------------------------------


def rk4_step(rhs, state, dt):
    """One classical 4th-order Runge-Kutta step of d(state)/dt = rhs(state).

    The engine's split step must match this on the concatenated (x, x_bar)
    vector bit for bit.
    """
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# -- helpers only tests call --------------------------------------------


def kernel_eval(params, x, x2):
    """Kernel value for a pair of scalar inputs."""
    d = x - x2
    return params.sigma_f**2 * math.exp(-(d * d) / (2.0 * params.length_scale**2))


def kernel_vec_reference(params, xs, x):
    """Kernel values k(xs[i], x) for a scalar x, in temporaries.

    The package's former ``gp._kernel_vec``: ``gp._kernel`` must give its bits.
    """
    d = xs - x
    return params.sigma_f**2 * np.exp(-(d * d) / (2.0 * params.length_scale**2))


def kernel_matrix_reference(params, xs, q):
    """Kernel values k(xs[i], q[j]) as a (len(xs), len(q)) array, in temporaries.

    The package's former ``gp._kernel_matrix``: ``gp._kernel`` must give its bits.
    """
    diff = xs[:, None] - q[None, :]
    return params.sigma_f**2 * np.exp(-(diff * diff) / (2.0 * params.length_scale**2))


def chol(model):
    """Copy of the lower Cholesky factor of (K + sigma_n^2 I) for the current data."""
    m = model.size
    return model._chol[:m, :m].copy()


def mean_grid(model, xs):
    """Posterior mean over a query grid, no solve.

    The package's former ``GpModel.mean_grid``: bit-identical to
    ``model.posterior_grid(xs)[0]``.
    """
    q = np.asarray(xs, dtype=float)
    m = model.size
    if m == 0:
        return np.zeros_like(q)
    return kernel_matrix_reference(model.kernel, model._x[:m], q).T @ model._alpha


def error_bound(model, ctx, x):
    """Pointwise high-probability error bound 2*sqrt(beta)*sigma(x)."""
    if not (ctx.domain_lo <= x <= ctx.domain_hi):
        raise OutOfDomain(f"x={x} outside [{ctx.domain_lo}, {ctx.domain_hi}]")
    _, sigma = model.posterior(x)
    return 2.0 * math.sqrt(ctx.beta) * sigma


def classify_agent(eta, x, x_bar, c, n_agents, eta_bar_lower):
    """Partition used in the accuracy argument.

    S1: small disagreement, c|x - x_bar| <= (sqrt(N-1)+1) eta_bar.
    S2: large disagreement and the trigger fires.
    S3: large disagreement, trigger silent.
    """
    if c * abs(x - x_bar) <= (math.sqrt(n_agents - 1) + 1.0) * eta_bar_lower:
        return "S1"
    if rho_proposed(eta, x, x_bar, c, n_agents, eta_bar_lower) > 0.0:
        return "S2"
    return "S3"


def trend_slope(times, values):
    """Least-squares slope of values against time."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < 2:
        raise InvalidParam("trend_slope needs at least two samples")
    return float(np.polyfit(t, v, 1)[0])


def relaxed_disagreement_rate(eta, x, x_bar, c, n_agents, eta_bar_lower, epsilon):
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


def normals(rng, n, mu=0.0, sigma=1.0):
    """n independent Gaussian draws from a SplitMix64 stream."""
    return [rng.normal(mu, sigma) for _ in range(n)]


def read_trajectory_csv(path):
    """Parse a trajectory file back into (meta, header, value matrix)."""
    meta = {}
    header = []
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
                continue
            if not line:
                continue
            if not header:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    return meta, header, np.array(rows)

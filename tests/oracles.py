"""Independent reference implementations used only by tests.

Everything here is deliberately naive: dense matrices, explicit loops,
no factorizations shared with the library code. Agreement between the
package and these references is the point of the comparison, so the two
sides must not share numerics.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.linalg import solve_triangular

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
        lip_mu, lip_sigma = estimate_lipschitz(grid, mu, sigma)
        ctx = replace(bound, lip_mu=lip_mu, lip_sigma=lip_sigma)
        verdicts.append(check_gamma_condition(ctx, sigma))
    return all(verdicts)

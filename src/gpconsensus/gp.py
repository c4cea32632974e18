"""Exact Gaussian process regression with incremental updates.

Each agent keeps one scalar-input, scalar-output model with a squared
exponential kernel, zero prior mean, and fixed hyperparameters. The
factor of (K + sigma_n^2 I) is maintained as a lower Cholesky matrix and
extended one row at a time when online points arrive, so a trigger costs
O(M^2) instead of a full O(M^3) refactorization. The module also houses
the high-probability uniform error bound machinery: the confidence
scaling beta, the pointwise bound 2*sqrt(beta)*sigma(x), and the grid
checks for the Lipschitz-based validity condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import solve_triangular

from .errors import CapacityExceeded, InvalidParam, NumericalBreakdown, OutOfDomain

# negative posterior variance beyond this magnitude is treated as a
# numerical failure rather than silently clamped
NEG_VAR_TOL = 1e-12

# additive diagonal jitter ladder tried when a Cholesky step fails
JITTER_LADDER = (1e-12, 1e-11, 1e-10, 1e-9, 1e-8)

_INITIAL_CAPACITY = 64


@dataclass(frozen=True)
class KernelParams:
    """Squared exponential kernel k(x,x') = sigma_f^2 exp(-(x-x')^2 / (2 l^2))."""

    sigma_f: float
    length_scale: float

    def __post_init__(self):
        if not (self.sigma_f > 0.0):
            raise InvalidParam(f"sigma_f must be > 0, got {self.sigma_f}")
        if not (self.length_scale > 0.0):
            raise InvalidParam(f"length_scale must be > 0, got {self.length_scale}")


def kernel_eval(params: KernelParams, x: float, x2: float) -> float:
    """Kernel value for a pair of scalar inputs."""
    d = x - x2
    return params.sigma_f**2 * math.exp(-(d * d) / (2.0 * params.length_scale**2))


def _kernel_vec(params: KernelParams, xs: NDArray, x: float) -> NDArray:
    d = xs - x
    return params.sigma_f**2 * np.exp(-(d * d) / (2.0 * params.length_scale**2))


class GpModel:
    """Mutable exact-GP dataset with a growing Cholesky factor.

    Single-writer: one agent appends between control steps. Buffers are
    capacity-doubled up to max_points; the weight vector alpha solving
    (K + sigma_n^2 I) alpha = y is cached and refreshed on append, which
    makes mean queries O(M) and variance queries one triangular solve.
    """

    def __init__(self, kernel: KernelParams, noise_std: float, max_points: int = 1000):
        if not (noise_std > 0.0):
            raise InvalidParam(f"noise_std must be > 0, got {noise_std}")
        if max_points < 1:
            raise InvalidParam(f"max_points must be >= 1, got {max_points}")
        self.kernel = kernel
        self.noise_std = float(noise_std)
        self.max_points = int(max_points)
        cap = min(_INITIAL_CAPACITY, self.max_points)
        self._x = np.zeros(cap)
        self._y = np.zeros(cap)
        self._chol = np.zeros((cap, cap))
        self._alpha = np.zeros(cap)
        self._m = 0

    # -- construction -------------------------------------------------

    @classmethod
    def from_data(
        cls,
        kernel: KernelParams,
        noise_std: float,
        inputs,
        outputs,
        max_points: int = 1000,
    ) -> "GpModel":
        """Batch-build a model from an offline dataset."""
        xs = np.asarray(inputs, dtype=float)
        ys = np.asarray(outputs, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise InvalidParam("inputs and outputs must be equal-length 1-d arrays")
        model = cls(kernel, noise_std, max_points)
        m = xs.size
        if m == 0:
            return model
        if m > model.max_points:
            raise CapacityExceeded(f"{m} offline points exceed cap {model.max_points}")
        model._ensure_capacity(m)
        diff = xs[:, None] - xs[None, :]
        gram = kernel.sigma_f**2 * np.exp(-(diff * diff) / (2.0 * kernel.length_scale**2))
        gram[np.diag_indices(m)] += noise_std**2
        model._chol[:m, :m] = _cholesky_with_jitter(gram)
        model._x[:m] = xs
        model._y[:m] = ys
        model._m = m
        model._refresh_alpha()
        return model

    # -- accessors ----------------------------------------------------

    @property
    def size(self) -> int:
        return self._m

    @property
    def inputs(self) -> NDArray:
        return self._x[: self._m].copy()

    @property
    def outputs(self) -> NDArray:
        return self._y[: self._m].copy()

    @property
    def chol(self) -> NDArray:
        """Lower Cholesky factor of (K + sigma_n^2 I) for the current data."""
        return self._chol[: self._m, : self._m].copy()

    # -- queries ------------------------------------------------------

    def mean(self, x: float) -> float:
        """Posterior mean at a scalar query point: one kernel vector, no solve.

        Bit-identical to ``posterior(x)[0]``; use it where sigma is not read.
        """
        if self._m == 0:
            return 0.0
        m = self._m
        k = _kernel_vec(self.kernel, self._x[:m], x)
        return float(k @ self._alpha[:m])

    def posterior(self, x: float) -> tuple[float, float]:
        """Posterior mean and standard deviation at a scalar query point."""
        if self._m == 0:
            return 0.0, self.kernel.sigma_f
        m = self._m
        k = _kernel_vec(self.kernel, self._x[:m], x)
        mu = float(k @ self._alpha[:m])
        v = solve_triangular(self._chol[:m, :m], k, lower=True, check_finite=False)
        var = self.kernel.sigma_f**2 - float(v @ v)
        return mu, math.sqrt(_clamp_var(var))

    def posterior_grid(self, xs) -> tuple[NDArray, NDArray]:
        """Vectorized posterior over a query grid; returns (mu, sigma) arrays."""
        q = np.asarray(xs, dtype=float)
        if self._m == 0:
            return np.zeros_like(q), np.full_like(q, self.kernel.sigma_f)
        m = self._m
        diff = self._x[:m, None] - q[None, :]
        kq = self.kernel.sigma_f**2 * np.exp(
            -(diff * diff) / (2.0 * self.kernel.length_scale**2)
        )
        mu = kq.T @ self._alpha[:m]
        v = solve_triangular(self._chol[:m, :m], kq, lower=True, check_finite=False)
        var = self.kernel.sigma_f**2 - np.einsum("ij,ij->j", v, v)
        bad = var < -NEG_VAR_TOL
        if np.any(bad):
            raise NumericalBreakdown(
                f"posterior variance {var[bad].min():.3e} below -{NEG_VAR_TOL:.0e}"
            )
        return mu, np.sqrt(np.maximum(var, 0.0))

    # -- updates ------------------------------------------------------

    def add_point(self, x: float, y: float) -> "GpModel":
        """Append one observation, extending the Cholesky factor by one row."""
        if self._m >= self.max_points:
            raise CapacityExceeded(f"dataset already at cap {self.max_points}")
        m = self._m
        self._ensure_capacity(m + 1)
        kxx = self.kernel.sigma_f**2 + self.noise_std**2
        if m == 0:
            self._chol[0, 0] = math.sqrt(kxx)
        else:
            k = _kernel_vec(self.kernel, self._x[:m], x)
            c = solve_triangular(self._chol[:m, :m], k, lower=True, check_finite=False)
            d2 = kxx - float(c @ c)
            if d2 <= 0.0:
                for jitter in JITTER_LADDER:
                    if d2 + jitter > 0.0:
                        d2 += jitter
                        break
                else:
                    raise NumericalBreakdown(
                        f"pivot {d2:.3e} not recoverable within jitter ladder"
                    )
            self._chol[m, :m] = c
            self._chol[m, m] = math.sqrt(d2)
        self._x[m] = x
        self._y[m] = y
        self._m = m + 1
        self._refresh_alpha()
        return self

    # -- internals ----------------------------------------------------

    def _refresh_alpha(self) -> None:
        m = self._m
        lower = self._chol[:m, :m]
        z = solve_triangular(lower, self._y[:m], lower=True, check_finite=False)
        self._alpha[:m] = solve_triangular(lower.T, z, lower=False, check_finite=False)

    def _ensure_capacity(self, needed: int) -> None:
        cap = self._x.size
        if needed <= cap:
            return
        new_cap = max(needed, min(2 * cap, self.max_points))
        grown_x = np.zeros(new_cap)
        grown_y = np.zeros(new_cap)
        grown_chol = np.zeros((new_cap, new_cap))
        grown_alpha = np.zeros(new_cap)
        m = self._m
        grown_x[:m] = self._x[:m]
        grown_y[:m] = self._y[:m]
        grown_chol[:m, :m] = self._chol[:m, :m]
        grown_alpha[:m] = self._alpha[:m]
        self._x, self._y, self._chol, self._alpha = (
            grown_x,
            grown_y,
            grown_chol,
            grown_alpha,
        )


def _clamp_var(var: float) -> float:
    if var >= 0.0:
        return var
    if var >= -NEG_VAR_TOL:
        return 0.0
    raise NumericalBreakdown(f"posterior variance {var:.3e} below -{NEG_VAR_TOL:.0e}")


def _cholesky_with_jitter(gram: NDArray) -> NDArray:
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(gram.shape[0])
    for jitter in JITTER_LADDER:
        try:
            return np.linalg.cholesky(gram + jitter * eye)
        except np.linalg.LinAlgError:
            continue
    raise NumericalBreakdown("Cholesky failed even with 1e-8 diagonal jitter")


# -- uniform error bound ---------------------------------------------


def compute_beta(delta: float, tau: float, domain_lo: float, domain_hi: float) -> float:
    """Confidence scaling for the uniform bound on a compact interval.

    beta = 2 log( (domain_hi - domain_lo) / (2 delta tau) + 1/delta ),
    where tau is the grid constant of the covering argument and delta the
    per-model failure probability.
    """
    if not (0.0 < delta < 1.0):
        raise InvalidParam(f"delta must be in (0,1), got {delta}")
    if not (tau > 0.0):
        raise InvalidParam(f"tau must be > 0, got {tau}")
    if not (domain_hi > domain_lo):
        raise InvalidParam(f"empty domain [{domain_lo}, {domain_hi}]")
    return 2.0 * math.log((domain_hi - domain_lo) / (2.0 * delta * tau) + 1.0 / delta)


@dataclass(frozen=True)
class BoundContext:
    """Frozen ingredients of the probabilistic uniform error bound.

    eta_bar_lower is the post-update floor 2*sqrt(beta)*sigma_n: the
    bound value attainable at a point right after observing it.
    """

    delta: float
    tau: float
    beta: float
    eta_bar_lower: float
    lip_f: float
    lip_mu: float
    lip_sigma: float
    domain_lo: float
    domain_hi: float

    def __post_init__(self):
        expected = compute_beta(self.delta, self.tau, self.domain_lo, self.domain_hi)
        if abs(self.beta - expected) > 1e-9 * max(1.0, abs(expected)):
            raise InvalidParam(
                f"beta {self.beta} inconsistent with (delta, tau, domain): "
                f"expected {expected}"
            )
        if not (self.eta_bar_lower > 0.0):
            raise InvalidParam(f"eta_bar_lower must be > 0, got {self.eta_bar_lower}")
        for name in ("lip_f", "lip_mu", "lip_sigma"):
            if getattr(self, name) < 0.0:
                raise InvalidParam(f"{name} must be >= 0")


def make_bound_context(
    delta: float,
    tau: float,
    domain_lo: float,
    domain_hi: float,
    noise_std: float,
    lip_f: float,
    lip_mu: float = 0.0,
    lip_sigma: float = 0.0,
) -> BoundContext:
    """Build a BoundContext, deriving beta and the post-update floor."""
    if not (noise_std > 0.0):
        raise InvalidParam(f"noise_std must be > 0, got {noise_std}")
    beta = compute_beta(delta, tau, domain_lo, domain_hi)
    return BoundContext(
        delta=delta,
        tau=tau,
        beta=beta,
        eta_bar_lower=2.0 * math.sqrt(beta) * noise_std,
        lip_f=lip_f,
        lip_mu=lip_mu,
        lip_sigma=lip_sigma,
        domain_lo=domain_lo,
        domain_hi=domain_hi,
    )


def error_bound(model: GpModel, ctx: BoundContext, x: float) -> float:
    """Pointwise high-probability error bound 2*sqrt(beta)*sigma(x)."""
    if not (ctx.domain_lo <= x <= ctx.domain_hi):
        raise OutOfDomain(f"x={x} outside [{ctx.domain_lo}, {ctx.domain_hi}]")
    _, sigma = model.posterior(x)
    return 2.0 * math.sqrt(ctx.beta) * sigma


def domain_grid(domain_lo: float, domain_hi: float, grid_step: float) -> NDArray:
    """Uniform grid over [domain_lo, domain_hi] with spacing close to grid_step."""
    if not (grid_step > 0.0):
        raise InvalidParam(f"grid_step must be > 0, got {grid_step}")
    if not (domain_hi > domain_lo):
        raise InvalidParam(f"empty domain [{domain_lo}, {domain_hi}]")
    n = max(2, int(round((domain_hi - domain_lo) / grid_step)) + 1)
    return np.linspace(domain_lo, domain_hi, n)


def estimate_lipschitz(grid: NDArray, mu: NDArray, sigma: NDArray) -> tuple[float, float]:
    """Grid estimates of the slopes of the posterior mean and std.

    Takes a uniform grid and the posterior (mu, sigma) on it; returns the
    max absolute finite-difference slopes, inflated by a 1.1 safety factor.
    """
    h = grid[1] - grid[0]
    lip_mu = float(np.max(np.abs(np.diff(mu)))) / h
    lip_sigma = float(np.max(np.abs(np.diff(sigma)))) / h
    return 1.1 * lip_mu, 1.1 * lip_sigma


def check_gamma_condition(ctx: BoundContext, sigma: NDArray) -> bool:
    """Whether the covering-argument slack fits under the variance floor.

    gamma = (lip_f + lip_mu + sqrt(beta) lip_sigma) * tau must not exceed
    min over the domain grid of sqrt(beta) * sigma(x), where sigma is the
    posterior std on that grid. A violation means tau was chosen too
    coarse for how sharp the posterior has become; the caller logs it but
    does not abort.
    """
    root_beta = math.sqrt(ctx.beta)
    gamma = (ctx.lip_f + ctx.lip_mu + root_beta * ctx.lip_sigma) * ctx.tau
    return gamma <= root_beta * float(np.min(sigma))

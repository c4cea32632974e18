"""Exact Gaussian process regression with incremental updates.

Each agent keeps one scalar-input, scalar-output model with a squared
exponential kernel, zero prior mean, and fixed hyperparameters. The
factor of (K + sigma_n^2 I) is maintained as a lower Cholesky matrix and
extended one row at a time when online points arrive, so a trigger costs
O(M^2) instead of a full O(M^3) refactorization. Every triangular solve,
the back-solve for the weights included, is one LAPACK call on the live
factor buffer: no solve copies the factor, and the results do not depend
on the buffer's spare capacity. One function, ``_kernel``, evaluates the
kernel for every query, update and grid, in place in its result. The
module also houses the high-probability uniform error bound machinery:
the confidence scaling beta, the grid slope estimate, and the one
expression of the Lipschitz-based validity (gamma) condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import lapack

from .errors import CapacityExceeded, InvalidParam, NumericalBreakdown

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


def _kernel(params: KernelParams, xs: NDArray, q: float | NDArray) -> NDArray:
    """Kernel values k(xs[i], q): shape (m,) for a scalar q, (m, n) for an array.

    Built in place in the array of differences, so the result is the only
    array of its size allocated.
    """
    d = np.subtract.outer(xs, q)
    np.square(d, out=d)
    np.negative(d, out=d)
    np.divide(d, 2.0 * params.length_scale**2, out=d)
    np.exp(d, out=d)
    np.multiply(d, params.sigma_f**2, out=d)
    return d


class GpModel:
    """Mutable exact-GP dataset with a growing Cholesky factor.

    Single-writer: one agent appends between control steps. The input,
    target and factor buffers are capacity-doubled up to max_points; the
    weight vector alpha solving (K + sigma_n^2 I) alpha = y is exact-size
    and replaced whole on append, which makes mean queries O(M) and
    variance queries one triangular solve.
    Models made by ``with_outputs`` hold the input and factor buffers by
    reference, read-only; ``add_point`` copies them before its first write.
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
        self._alpha = np.zeros(0)
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
        gram = _kernel(kernel, xs, xs)
        gram[np.diag_indices(m)] += noise_std**2
        model._chol[:m, :m] = _cholesky_with_jitter(gram)
        model._x[:m] = xs
        model._y[:m] = ys
        model._m = m
        model._refresh_alpha()
        return model

    def with_outputs(self, outputs) -> "GpModel":
        """A new model on this model's inputs and factor with other targets.

        Skips the O(M^3) factorization: the result has the same bits as
        ``from_data`` on the same inputs. Both models hold the same input
        and factor buffers, marked read-only so that a stray write raises;
        ``add_point`` on either copies them first.
        """
        ys = np.asarray(outputs, dtype=float)
        m = self._m
        if ys.shape != (m,):
            raise InvalidParam(f"expected {m} outputs, got shape {ys.shape}")
        self._x.flags.writeable = self._chol.flags.writeable = False
        model = GpModel(self.kernel, self.noise_std, self.max_points)
        model._x = self._x
        model._y = np.zeros_like(self._y)
        model._y[:m] = ys
        model._chol = self._chol
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

    def same_factor(self, other: "GpModel") -> bool:
        """Whether other holds this model's factor buffer, by ``with_outputs``.

        Any write copies the buffer first, so sharing it means the same
        kernel, noise, inputs and factor: the posterior sigma is the same
        at every query point; only the targets, and so the mean, may differ.
        """
        return self._chol is other._chol

    # -- queries ------------------------------------------------------

    def mean(self, x: float) -> float:
        """Posterior mean at a scalar query point: one kernel vector, no solve.

        Bit-identical to ``posterior(x)[0]``; use it where sigma is not read.
        """
        if self._m == 0:
            return 0.0
        m = self._m
        k = _kernel(self.kernel, self._x[:m], x)
        return float(k @ self._alpha)

    def posterior(self, x: float) -> tuple[float, float]:
        """Posterior mean and standard deviation at a scalar query point."""
        if self._m == 0:
            return 0.0, self.kernel.sigma_f
        m = self._m
        k = _kernel(self.kernel, self._x[:m], x)
        mu = float(k @ self._alpha)
        v = self._solve_lower(k)
        var = self.kernel.sigma_f**2 - float(v @ v)
        return mu, math.sqrt(_clamp_var(var))

    def posterior_grid(self, xs, *, _kq: NDArray | None = None) -> tuple[NDArray, NDArray]:
        """Vectorized posterior over a query grid; returns (mu, sigma) arrays.

        ``_kq`` is the kernel matrix of this model's inputs against xs when
        the caller already holds it (the end-of-run gamma check shares one
        between models on the same factor); it gives the same bits as
        building it.
        """
        q = np.asarray(xs, dtype=float)
        if self._m == 0:
            return np.zeros_like(q), np.full_like(q, self.kernel.sigma_f)
        m = self._m
        kq = _kernel(self.kernel, self._x[:m], q) if _kq is None else _kq
        mu = _grid_mean(self, kq)
        v = self._solve_lower(kq)
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
            k = _kernel(self.kernel, self._x[:m], x)
            c = self._solve_lower(k)
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

    def _solve_lower(self, b: NDArray, transposed: bool = False) -> NDArray:
        """L^-1 b, or L^-T b if transposed, for the live factor L, in place.

        ``self._chol[:m].T`` is F-contiguous with Lᵀ as its leading m x m
        block (lda = capacity), so LAPACK reads it without a copy, and the
        result does not depend on the buffer's spare capacity. b is 1-d or
        (m, k).
        """
        trans = 0 if transposed else 1
        x, info = lapack.dtrtrs(self._chol[: self._m].T, b, lower=0, trans=trans)
        if info != 0:
            raise NumericalBreakdown(f"triangular solve failed (LAPACK dtrtrs info {info})")
        return x

    def _refresh_alpha(self) -> None:
        m = self._m
        z = self._solve_lower(self._y[:m])
        self._alpha = self._solve_lower(z, transposed=True)

    def _ensure_capacity(self, needed: int) -> None:
        cap = self._x.size
        # a read-only buffer is shared by with_outputs: copy it even with room
        if needed <= cap and self._chol.flags.writeable:
            return
        new_cap = max(needed, min(2 * cap, self.max_points))
        grown_x = np.zeros(new_cap)
        grown_y = np.zeros(new_cap)
        grown_chol = np.zeros((new_cap, new_cap))
        m = self._m
        grown_x[:m] = self._x[:m]
        grown_y[:m] = self._y[:m]
        grown_chol[:m, :m] = self._chol[:m, :m]
        self._x, self._y, self._chol = grown_x, grown_y, grown_chol


# grid points whose sigma is solved before the end-of-run grid solve
_PROBE_POINTS = 16

# unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0**-53


def _grid_mean(model: GpModel, kq: NDArray) -> NDArray:
    """The posterior mean on a grid, from the kernel matrix kq of the model's
    inputs against it: the bits of ``posterior_grid``'s mean, with no solve."""
    return kq.T @ model._alpha


def _sigma_upper(model: GpModel, q: NDArray, kq: NDArray) -> float | None:
    """A float at or above the smallest sigma of ``posterior_grid(q, _kq=kq)``.

    kq is the kernel matrix of the model's inputs against the ascending
    grid q. sigma is solved at the at most _PROBE_POINTS grid points
    nearest the model's inputs where those are densest, by
    ``posterior_grid`` on those columns of kq, so a negative variance there
    still raises. None for an empty model, or when the margin below leaves
    its first-order regime.

    The margin covers the full solve rounding differently from the
    probe, as dtrtrs on thousands of right-hand sides may block
    differently from dtrtrs on 16. Substitution in any order is
    componentwise backward stable (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Thm 8.5): each solve is exact for a
    factor L + dL with |dL| <= m u |L|, so it is the exact posterior for
    the Gram matrix L L^T + E with |E| <= 2 m u |L| |L|^T. By
    Cauchy-Schwarz on the rows of L, whose squared norms are the Gram
    diagonal, that is at most 2 m u d entrywise, d = sigma_f^2 +
    sigma_n^2 + the largest jitter, so ||E||_2 <= 2 m^2 u d. To first
    order the variance moves by h^T E h with h = (L L^T)^-1 k, and
    sigma_n^2 |h|^2 <= sigma^2 (the noise share of the posterior
    variance), so every computed variance lies within rel * sigma^2 of
    the exact one, rel = 2 m^2 u d / sigma_n^2, plus m u sigma_f^2 from
    summing the squares. For rel <= 1/4 the full solve's sigma at a probe
    point is then below (1 + 2 rel) sigma_probe + 2 sigma_f sqrt(m u),
    and the slack between the two covers rounding this bound itself.
    """
    m = model._m
    if m == 0:
        return None
    sigma_f = model.kernel.sigma_f
    noise_var = model.noise_std**2
    d = sigma_f**2 + noise_var + JITTER_LADDER[-1]
    rel = 2.0 * m * m * _UNIT_ROUNDOFF * d / noise_var
    if rel > 0.25:
        return None
    cols = _probe_columns(model, q)
    _, sigma = model.posterior_grid(q[cols], _kq=kq[:, cols])
    return float(np.min(sigma)) * (1.0 + 2.0 * rel) + 2.0 * sigma_f * math.sqrt(
        m * _UNIT_ROUNDOFF
    )


def _probe_columns(model: GpModel, q: NDArray) -> NDArray:
    """At most _PROBE_POINTS indices into the ascending grid q.

    Takes the grid point nearest each input of the model and keeps those
    with the most inputs within one length scale: sigma is smallest where
    the data is densest. The sigma of any grid point bounds the grid's
    minimum, so the choice only sets how often a failure is proven.
    """
    xs = np.sort(model._x[: model._m])
    hi = np.clip(np.searchsorted(q, xs), 1, q.size - 1)
    cols = np.unique(np.where(xs - q[hi - 1] < q[hi] - xs, hi - 1, hi))
    ell = model.kernel.length_scale
    near = np.searchsorted(xs, q[cols] + ell, "right") - np.searchsorted(xs, q[cols] - ell)
    return cols[np.argsort(-near, kind="stable")[:_PROBE_POINTS]]


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
        if self.lip_f < 0.0:
            raise InvalidParam("lip_f must be >= 0")


def make_bound_context(
    delta: float,
    tau: float,
    domain_lo: float,
    domain_hi: float,
    noise_std: float,
    lip_f: float,
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
        domain_lo=domain_lo,
        domain_hi=domain_hi,
    )


def domain_grid(domain_lo: float, domain_hi: float, grid_step: float) -> NDArray:
    """Uniform grid over [domain_lo, domain_hi] with spacing close to grid_step."""
    if not (grid_step > 0.0):
        raise InvalidParam(f"grid_step must be > 0, got {grid_step}")
    if not (domain_hi > domain_lo):
        raise InvalidParam(f"empty domain [{domain_lo}, {domain_hi}]")
    n = max(2, int(round((domain_hi - domain_lo) / grid_step)) + 1)
    return np.linspace(domain_lo, domain_hi, n)


def max_slope(grid: NDArray, values: NDArray) -> float:
    """The max absolute finite-difference slope of values on a uniform grid."""
    return float(np.max(np.abs(np.diff(values)))) / float(grid[1] - grid[0])


def estimate_lipschitz(grid: NDArray, values: NDArray) -> float:
    """The grid estimate of the slope of values: ``max_slope`` inflated by 1.1."""
    return 1.1 * max_slope(grid, values)


def check_gamma_condition(
    ctx: BoundContext, lip_mu: float, lip_sigma: float, sigma_min: float
) -> bool:
    """Whether the covering-argument slack fits under the variance floor.

    gamma = (lip_f + lip_mu + sqrt(beta) lip_sigma) * tau must not exceed
    sqrt(beta) * sigma_min, where lip_mu and lip_sigma are the slopes of
    one model's posterior mean and std on the domain grid and sigma_min
    is the smallest std there. A violation means tau was chosen too
    coarse for how sharp the posterior has become; the caller logs it but
    does not abort.
    """
    root_beta = math.sqrt(ctx.beta)
    gamma = (ctx.lip_f + lip_mu + root_beta * lip_sigma) * ctx.tau
    return gamma <= root_beta * sigma_min

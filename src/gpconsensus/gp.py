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
from dataclasses import dataclass, field

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
    np.divide(d, -2.0 * params.length_scale**2, out=d)
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
        # the last query: x, dataset size, k(x) and L^-1 k(x) unless skipped
        self._query: tuple[float, int, NDArray, NDArray | None] | None = None
        self._screen = _screen_margins(kernel, self.noise_std, self.max_points)
        # (x_a, s_a) with s_a >= the reference sd at x_a, see posterior
        self._anchor: tuple[float, float] | None = None
        # (size at build, first window index, transposed window factor or None)
        self._window: tuple[int, int, NDArray | None] | None = None

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

    def posterior(
        self, x: float, screen: tuple[float, float] | None = None
    ) -> tuple[float, float]:
        """Posterior mean and standard deviation at a scalar query point.

        Keeps x, the dataset size, k(x) and L^-1 k(x), which ``add_point``
        at the same x and size reuses.

        With screen = (scale, limit), a model of at least _SCREEN_POINTS
        points may skip its O(M^2) solve: where an upper bound s on the sd
        the solve would give is found with scale * s <= limit, s is
        returned in its place. A trigger with eta = scale * sd and that
        limit as its threshold then cannot fire, as floating-point
        multiplication by a positive scale is monotone. The mean is always
        ``k(x) @ alpha``, with the bits of an unscreened query. The bound
        comes first from the anchor, then from the window (see
        ``_screen_margins``), whose factor is rebuilt on the newest
        _WINDOW_POINTS samples only where it fails and the model did not
        grow since its previous query: in a firing streak the full solve
        is due anyway. A skipped solve cannot raise on a negative variance.
        """
        if self._m == 0:
            return 0.0, self.kernel.sigma_f
        m = self._m
        k = _kernel(self.kernel, self._x[:m], x)
        mu = float(k @ self._alpha)
        if screen is not None and m >= _SCREEN_POINTS and self._screen is not None:
            bound = self._sigma_bound(x, k, *screen)
            if bound is not None:
                self._query = (x, m, k, None)
                return mu, bound
        v = self._solve_lower(k)
        self._query = (x, m, k, v)
        sigma = math.sqrt(_clamp_var(self.kernel.sigma_f**2 - float(v @ v)))
        if self._screen is not None:
            self._anchor = (x, self._screen.lift(sigma))
        return mu, sigma

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

    def add_point(self, x: float, y: float) -> tuple[float, float]:
        """Append one observation; returns the posterior (mean, sd) at x after it.

        The factor grows by one row, c = L^-1 k(x) and the pivot d. After
        ``posterior(x)`` at this dataset size, c is that query's solve with
        the same bits (the factor only grows, so its first m rows are those
        the query solved against), and k(x) is that query's too. The new
        kernel vector [k(x), sigma_f^2] has the bits of a fresh one, so the
        mean is the bits of a fresh query. The new factor's solve at x is
        [c, e] with e = (sigma_f^2 - c.c) / d, so the variance is
        sigma_f^2 - (c.c + e^2) with no further solve; it is a
        substitution in another order than a fresh query's and differs
        from it in the last bits only.
        """
        if self._m >= self.max_points:
            raise CapacityExceeded(f"dataset already at cap {self.max_points}")
        m = self._m
        self._ensure_capacity(m + 1)
        sigma_f2 = self.kernel.sigma_f**2
        query = self._query
        if m == 0:
            k = c = np.zeros(0)
        elif query is not None and query[0] == x and query[1] == m:
            k, c = query[2], query[3]
        else:
            k, c = _kernel(self.kernel, self._x[:m], x), None
        if c is None:
            c = self._solve_lower(k)
        cc = float(c @ c)
        d2 = sigma_f2 + self.noise_std**2 - cc
        if d2 <= 0.0:
            for jitter in JITTER_LADDER:
                if d2 + jitter > 0.0:
                    d2 += jitter
                    break
            else:
                raise NumericalBreakdown(
                    f"pivot {d2:.3e} not recoverable within jitter ladder"
                )
        d = math.sqrt(d2)
        self._chol[m, :m] = c
        self._chol[m, m] = d
        self._x[m] = x
        self._y[m] = y
        self._m = m + 1
        self._refresh_alpha()
        self._query = None
        k_new = np.empty(m + 1)
        k_new[:m] = k
        k_new[m] = sigma_f2
        e = (sigma_f2 - cc) / d
        sigma = math.sqrt(_clamp_var(sigma_f2 - (cc + e * e)))
        if self._screen is not None:
            self._anchor = (x, self._screen.lift(sigma))
        return float(k_new @ self._alpha), sigma

    # -- internals ----------------------------------------------------

    def _sigma_bound(self, x: float, k: NDArray, scale: float, limit: float) -> float | None:
        """An upper bound s on the sd a solve at x would give with
        scale * s <= limit, from the anchor or the window, or None.

        k is k(x) on the model's inputs. A bound on the reference sd at x
        found on the way becomes the anchor.
        """
        screen = self._screen
        x_a, s_a = self._anchor or (x, self.kernel.sigma_f)
        s = screen.lift(s_a + screen.slope * abs(x - x_a))
        if scale * s <= limit:
            return s
        s = self._window_bound(x, k)
        if s is not None and scale * s <= limit:
            return s
        # rebuild the window on the newest points only if it lacks some
        # and the model is quiet: a model that just grew is likely to fire
        m, window, query = self._m, self._window, self._query
        if (window is not None and window[0] == m) or query is None or query[1] != m:
            return None
        self._window = self._build_window()
        s = self._window_bound(x, k)
        return s if s is not None and scale * s <= limit else None

    def _window_bound(self, x: float, k: NDArray) -> float | None:
        """lift(lift(sigma_w)) at the point whose k(x) is k, or None without a
        usable window; lift(sigma_w), a bound on the reference sd there,
        becomes the anchor."""
        if self._window is None or self._window[2] is None:
            return None
        m_w, j0, lw_t = self._window
        v, info = lapack.dtrtrs(lw_t, k[j0:m_w], lower=0, trans=1)
        if info != 0:
            return None
        screen = self._screen
        s_ref = screen.lift(math.sqrt(max(self.kernel.sigma_f**2 - float(v @ v), 0.0)))
        self._anchor = (x, s_ref)
        return screen.lift(s_ref)

    def _build_window(self) -> tuple[int, int, NDArray | None]:
        """The window of the newest _WINDOW_POINTS inputs: its Cholesky factor
        at the window noise of ``_screen_margins``, transposed for dtrtrs."""
        m = self._m
        j0 = max(0, m - _WINDOW_POINTS)
        gram = _kernel(self.kernel, self._x[j0:m], self._x[j0:m])
        gram[np.diag_indices(m - j0)] += self._screen.window_noise
        try:
            return m, j0, np.linalg.cholesky(gram).T
        except np.linalg.LinAlgError:
            return m, j0, None

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

# dataset size from which a screened query may skip its solve (see the
# measured table in CHANGES.md): below it the solve is cheap and the
# screen's window rebuilds cost more than they save
_SCREEN_POINTS = 200

# newest samples whose exact posterior bounds a screened query's sd
_WINDOW_POINTS = 32

# unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class _Screen:
    """The constants of a model's screening bounds (``_screen_margins``)."""

    lam: float
    a2: float
    window_noise: float
    slope: float

    def lift(self, s: float) -> float:
        """sqrt(lam (s^2 + a2)): moves an sd bound between the computed and
        the reference sd."""
        return math.sqrt(self.lam * (s * s + self.a2))


def _screen_margins(kernel: KernelParams, noise_std: float, max_points: int) -> _Screen | None:
    """The constants that make a screened query's bound exact, or None.

    The bounds are stated for a reference sd sigma*(x): the exact posterior
    sd of the exact kernel on the model's inputs at noise variance s^2 =
    sigma_n^2 + J + e, where J is the largest jitter of JITTER_LADDER,
    e = 16 M^2 u d with M = max_points, u the unit roundoff and d =
    sigma_f^2 + sigma_n^2 + J. s^2 is fixed for the model's life, so two
    facts of exact GP regression hold for sigma* (Rasmussen & Williams,
    *GPML*, 2006, ch. 2): adding an input never raises it, and it is
    (sigma_f / l)-Lipschitz, because |sigma*(x) - sigma*(x')| is at most
    the posterior, and so the prior, sd of f(x) - f(x'), which is
    sigma_f sqrt(2 - 2 k(x, x') / sigma_f^2) <= sigma_f |x - x'| / l.

    A computed sd sigma_c of any substitution against the model's factor L
    is within ``_Screen.lift`` of sigma*, both ways: sigma_c <=
    lift(sigma*) and sigma* <= lift(sigma_c). So one computed sd lifted
    twice bounds another computed at the same point, as the end-of-run
    probe (``_sigma_upper``) uses. The factor, row by row or in
    one batch at any blocking or thread count, is exact for K + sigma_n^2
    I + D + E_f, with 0 <= D <= J I the jitter and |E_f| <= (m+1) u d
    entrywise (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., Thm 10.3, with |L||L|^T <= d entrywise by Cauchy-Schwarz);
    the solve is exact for L L^T + E_s, |E_s| <= 2 m u d entrywise
    (Thm 8.5); kernel entries are within 4 u sigma_f^2 of exact. So the
    computed variance before its last roundings is the Schur complement of
    a joint matrix that differs from the exact one at noise sigma_n^2 + D
    by at most 8 m^2 u d in norm in the data block, and by g = 4 sqrt(m) u
    sigma_f^2 in the cross terms. The Schur complement is monotone in the
    PSD order, so the variance lies between V(sigma_n^2 - e) - g and
    V(s^2) + g, V(t) being the exact posterior variance at noise t. As
    V(c t) <= c V(t) for c >= 1 (put the weights optimal at t into the
    error at c t), and summing the squares moves the variance by at most
    2 m u sigma_f^2, lam = s^2 / (sigma_n^2 - e) and a2 = 8 (M + 1) u
    sigma_f^2 suffice; the factor (1 + 16 u) in lam covers rounding the
    bound arithmetic itself.

    The window is the newest _WINDOW_POINTS inputs, factored at noise
    window_noise = s^2 + 16 K^2 u d for its K points. Dropping inputs
    never lowers an exact posterior variance, so by the same argument the
    window's computed sd sigma_w gives sigma*(x) <= lift(sigma_w). A
    window built at an earlier size still bounds sigma*, because its
    points are still data. None of these bounds depends on the order of
    any sum, so they hold at any BLAS thread count.

    None when e > sigma_n^2 / 4, where these first-order margins stop
    being small.
    """
    u = _UNIT_ROUNDOFF
    noise_var = noise_std**2
    sigma_f2 = kernel.sigma_f**2
    d = sigma_f2 + noise_var + JITTER_LADDER[-1]
    e = 16.0 * max_points**2 * u * d
    if e > 0.25 * noise_var:
        return None
    s2 = noise_var + JITTER_LADDER[-1] + e
    return _Screen(
        lam=s2 / (noise_var - e) * (1.0 + 16.0 * u),
        a2=8.0 * (max_points + 1) * u * sigma_f2,
        window_noise=s2 + 16.0 * _WINDOW_POINTS**2 * u * d,
        slope=kernel.sigma_f / kernel.length_scale,
    )


def shared_factor_means(models: list[GpModel], xs: NDArray) -> NDArray:
    """Posterior means of models[i] at xs[i], from one kernel block.

    The models must all hold one factor (``GpModel.same_factor``) or all
    be empty; empty models give 0.0. Row i of the N x M block of xs
    against the shared inputs has the bits of the kernel vector
    ``posterior(xs[i])`` builds (squaring drops the sign of each
    difference), so its dot with models[i]'s weights has the bits of
    ``posterior(xs[i])[0]``.
    """
    first = models[0]
    m = first._m
    if m == 0:
        return np.zeros(len(models))
    rows = _kernel(first.kernel, xs, first._x[:m])
    return np.array([row @ model._alpha for row, model in zip(rows, models)])


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
    still raises. The probe and the full grid solve are two substitutions
    against the model's factor, each within ``_Screen.lift`` of the
    reference sd (``_screen_margins``) at any blocking or thread count, so
    the full solve's sigma at the probe's smallest is at most
    lift(lift(that smallest)). None for an empty model or one without
    screen margins.
    """
    screen = model._screen
    if model._m == 0 or screen is None:
        return None
    cols = _probe_columns(model, q)
    _, sigma = model.posterior_grid(q[cols], _kq=kq[:, cols])
    return screen.lift(screen.lift(float(np.min(sigma))))


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
    """The probabilistic uniform error bound of one run, stated once.

    From its inputs it derives beta (``compute_beta``), root_beta =
    sqrt(beta), and the post-update floor eta_bar_lower = 2 sqrt(beta)
    sigma_n: the bound value attainable at a point right after observing
    it. ``dataclasses.replace`` derives them again from the new inputs.
    """

    delta: float
    tau: float
    domain_lo: float
    domain_hi: float
    noise_std: float
    lip_f: float
    beta: float = field(init=False)
    root_beta: float = field(init=False)
    eta_bar_lower: float = field(init=False)

    def __post_init__(self):
        if not (self.noise_std > 0.0):
            raise InvalidParam(f"noise_std must be > 0, got {self.noise_std}")
        beta = compute_beta(self.delta, self.tau, self.domain_lo, self.domain_hi)
        if self.lip_f < 0.0:
            raise InvalidParam("lip_f must be >= 0")
        root_beta = math.sqrt(beta)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "root_beta", root_beta)
        object.__setattr__(self, "eta_bar_lower", 2.0 * root_beta * self.noise_std)


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
    gamma = (ctx.lip_f + lip_mu + ctx.root_beta * lip_sigma) * ctx.tau
    return gamma <= ctx.root_beta * sigma_min

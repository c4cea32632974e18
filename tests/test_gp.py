"""Exact GP regression: posteriors, incremental updates, error bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from gpconsensus.errors import (
    CapacityExceeded,
    InvalidParam,
    NumericalBreakdown,
    OutOfDomain,
)
from gpconsensus.gp import (
    BoundContext,
    GpModel,
    KernelParams,
    _cholesky_with_jitter,
    _clamp_var,
    _kernel,
    check_gamma_condition,
    compute_beta,
    domain_grid,
    estimate_lipschitz,
    make_bound_context,
    shared_factor_means,
)
from gpconsensus.rng import SplitMix64
from oracles import (
    chol,
    error_bound,
    gp_posterior_reference,
    kernel_eval,
    kernel_matrix_reference,
    kernel_vec_reference,
    mean_grid,
    normals,
    sample_gp_prior,
    solve_lower_strided,
)

ORACLE_TOL = 1e-8
CHOL_TOL = 1e-9
VAR_MONOTONE_TOL = 1e-12

BENCH_KERNEL = KernelParams(sigma_f=1.0, length_scale=0.05)
NOISE_STD = 0.01

# frozen evaluations of the confidence-scaling formula on [-1.5, 1.5]
BETA_D01_T1E3 = 23.838114035243105  # delta=0.01, tau=1e-3
ETA_BAR_D01 = 0.09764858224315007  # 2 sqrt(beta) * 0.01


def make_ctx(lip_f=0.0, delta=0.01, tau=1e-3):
    return make_bound_context(
        delta=delta,
        tau=tau,
        domain_lo=-1.5,
        domain_hi=1.5,
        noise_std=NOISE_STD,
        lip_f=lip_f,
    )


class TestKernel:
    def test_self_similarity(self):
        assert kernel_eval(BENCH_KERNEL, 0.37, 0.37) == 1.0

    def test_one_length_scale_apart(self):
        # exponent is -(0.05^2) / (2 * 0.05^2) = -1/2
        val = kernel_eval(BENCH_KERNEL, 0.0, 0.05)
        assert val == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_symmetry_exact(self):
        rng = SplitMix64(101)
        for _ in range(50):
            a = rng.uniform(-1.5, 1.5)
            b = rng.uniform(-1.5, 1.5)
            assert kernel_eval(BENCH_KERNEL, a, b) == kernel_eval(BENCH_KERNEL, b, a)

    def test_monotone_decay_to_zero(self):
        vals = [kernel_eval(BENCH_KERNEL, 0.0, d) for d in (0.0, 0.1, 0.2, 0.5, 1.0)]
        assert all(hi > lo for hi, lo in zip(vals, vals[1:]))
        assert kernel_eval(BENCH_KERNEL, 0.0, 1.0) < 1e-8

    def test_output_scale(self):
        params = KernelParams(sigma_f=2.0, length_scale=0.5)
        assert kernel_eval(params, 1.0, 1.0) == 4.0

    def test_invalid_params(self):
        with pytest.raises(InvalidParam):
            KernelParams(sigma_f=0.0, length_scale=0.05)
        with pytest.raises(InvalidParam):
            KernelParams(sigma_f=1.0, length_scale=-1.0)

    # at 0.02, most exponents between random points fall below -700
    @pytest.mark.parametrize("length_scale", [0.05, 0.02])
    def test_same_bits_as_former_vector_kernel(self, length_scale):
        params = KernelParams(sigma_f=1.3, length_scale=length_scale)
        rng = SplitMix64(7060)
        for _ in range(200):
            m = 1 + int(rng.uniform(0.0, 300.0))
            xs = np.array([rng.uniform(-1.5, 1.5) for _ in range(m)])
            x = rng.uniform(-1.5, 1.5)
            want = kernel_vec_reference(params, xs, x)
            for q in (x, np.float64(x), np.array(x)):
                got = _kernel(params, xs, q)
                assert got.shape == (m,)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("length_scale", [0.05, 0.02])
    def test_same_bits_as_former_matrix_kernel(self, length_scale):
        params = KernelParams(sigma_f=1.3, length_scale=length_scale)
        rng = SplitMix64(7061)
        xs = np.array([rng.uniform(-1.5, 1.5) for _ in range(300)])
        grid = domain_grid(-1.5, 1.5, 1e-3)
        for q in (grid, xs, grid[:1]):
            got = _kernel(params, xs, q)
            assert got.shape == (xs.size, q.size)
            assert got.tobytes() == kernel_matrix_reference(params, xs, q).tobytes()

    # the one divide by -2 l^2 has the bits of a negate and a divide by 2 l^2
    @pytest.mark.parametrize("sigma_f", [0.7, 1.0, 2.3])
    @pytest.mark.parametrize("length_scale", [0.02, 0.05, 0.3, 1.7])
    def test_one_divide_keeps_the_former_bits(self, length_scale, sigma_f):
        params = KernelParams(sigma_f=sigma_f, length_scale=length_scale)
        rng = SplitMix64(7062)
        xs = np.array([rng.uniform(-1.5, 1.5) for _ in range(300)])
        grid = domain_grid(-1.5, 1.5, 1e-3)
        assert _kernel(params, xs, grid).tobytes() == kernel_matrix_reference(params, xs, grid).tobytes()
        for x in xs[:50].tolist():
            assert _kernel(params, xs, x).tobytes() == kernel_vec_reference(params, xs, x).tobytes()

    def test_matrix_built_in_place(self):
        # the former expression peaked at 3x its result through temporaries
        xs = np.linspace(-1.5, 1.5, 1000)
        grid = domain_grid(-1.5, 1.5, 1e-3)
        kq = []
        peak = peak_bytes(lambda: kq.append(_kernel(BENCH_KERNEL, xs, grid)))
        assert kq[0].shape == (1000, 3001)
        assert peak <= 1.05 * kq[0].nbytes


class TestPosterior:
    def test_empty_dataset_is_prior(self):
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        assert model.posterior(0.7) == (0.0, 1.0)

    def test_one_point_analytic(self):
        # mu = y / (1 + sigma_n^2), var = sigma_n^2 / (1 + sigma_n^2)
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        model.add_point(0.3, 1.7)
        mu, sigma = model.posterior(0.3)
        assert mu == pytest.approx(1.7 / (1.0 + 1e-4), rel=1e-12)
        assert sigma**2 == pytest.approx(1e-4 / (1.0 + 1e-4), rel=1e-10)

    def test_matches_dense_solve_oracle(self):
        rng = SplitMix64(7001)
        for trial in range(100):
            m = 1 + int(rng.uniform(0.0, 200.0))
            length_scale = 0.05 if trial % 2 == 0 else 0.3
            kernel = KernelParams(sigma_f=1.0, length_scale=length_scale)
            xs = [rng.uniform(-1.5, 1.5) for _ in range(m)]
            ys = normals(rng, m)
            model = GpModel.from_data(kernel, NOISE_STD, xs, ys)
            q = rng.uniform(-1.5, 1.5)
            mu, sigma = model.posterior(q)
            mu_ref, sigma_ref = gp_posterior_reference(
                1.0, length_scale, NOISE_STD, xs, ys, q
            )
            assert mu == pytest.approx(mu_ref, abs=ORACLE_TOL)
            assert sigma == pytest.approx(sigma_ref, abs=ORACLE_TOL)

    def test_grid_matches_scalar_queries(self):
        rng = SplitMix64(7002)
        xs = [rng.uniform(-1.0, 1.0) for _ in range(12)]
        ys = normals(rng, 12)
        model = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys)
        grid = np.linspace(-1.5, 1.5, 31)
        mu_g, sigma_g = model.posterior_grid(grid)
        for k, q in enumerate(grid):
            mu, sigma = model.posterior(float(q))
            assert mu_g[k] == pytest.approx(mu, abs=1e-12)
            assert sigma_g[k] == pytest.approx(sigma, abs=1e-12)

    def test_shared_factor_means_are_bitwise_posterior_means(self):
        rng = SplitMix64(7004)
        empty = [GpModel(BENCH_KERNEL, NOISE_STD) for _ in range(3)]
        assert shared_factor_means(empty, np.array([0.2, -1.0, 1.5])).tolist() == [0.0] * 3
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        for _ in range(40):
            model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
            models = [model] + [model.with_outputs(normals(rng, model.size)) for _ in range(3)]
            for _ in range(5):
                qs = np.array([rng.uniform(-1.5, 1.5) for _ in models])
                means = shared_factor_means(models, qs)
                assert means.tolist() == [m.posterior(q)[0] for m, q in zip(models, qs.tolist())]

    def test_mean_grid_is_bitwise_posterior_grid_mean(self):
        rng = SplitMix64(7005)
        grid = np.linspace(-1.5, 1.5, 301)
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        assert np.array_equal(mean_grid(model, grid), model.posterior_grid(grid)[0])
        for _ in range(3):
            for _ in range(20):
                model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
            assert np.array_equal(mean_grid(model, grid), model.posterior_grid(grid)[0])
        batch = GpModel.from_data(BENCH_KERNEL, NOISE_STD, np.linspace(-1, 1, 90), normals(rng, 90))
        assert np.array_equal(mean_grid(batch, grid), batch.posterior_grid(grid)[0])

    def test_interpolates_noisefree_like_data(self):
        rng = SplitMix64(7003)
        xs = np.linspace(-1.0, 1.0, 21)
        ys = np.sin(3.0 * xs)
        model = GpModel.from_data(KernelParams(1.0, 0.3), 0.001, xs, ys)
        for _ in range(20):
            q = rng.uniform(-1.0, 1.0)
            mu, _ = model.posterior(q)
            assert mu == pytest.approx(math.sin(3.0 * q), abs=0.01)


class TestAddPoint:
    def test_post_update_sigma_below_noise_floor(self):
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        model.add_point(0.3, 1.7)
        _, sigma = model.posterior(0.3)
        assert sigma == pytest.approx(0.0099995, abs=1e-6)
        assert sigma <= NOISE_STD

    def test_contraction_at_new_point_always(self):
        rng = SplitMix64(7010)
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        for _ in range(60):
            x = rng.uniform(-1.5, 1.5)
            model.add_point(x, rng.normal())
            _, sigma = model.posterior(x)
            assert sigma <= NOISE_STD + VAR_MONOTONE_TOL

    def test_variance_never_increases_on_grid(self):
        rng = SplitMix64(7011)
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        grid = np.linspace(-1.5, 1.5, 50)
        for _ in range(25):
            _, before = model.posterior_grid(grid)
            model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
            _, after = model.posterior_grid(grid)
            assert np.all(after <= before + VAR_MONOTONE_TOL)

    def test_incremental_chol_matches_batch(self):
        rng = SplitMix64(7012)
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        xs, ys = [], []
        for _ in range(30):
            x, y = rng.uniform(-1.5, 1.5), rng.normal()
            xs.append(x)
            ys.append(y)
            model.add_point(x, y)
        batch = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys)
        diff = np.linalg.norm(chol(model) - chol(batch))
        assert diff <= CHOL_TOL

    def test_chol_reconstructs_gram(self):
        rng = SplitMix64(7013)
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        for _ in range(40):
            model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
        xs = model.inputs
        diff = xs[:, None] - xs[None, :]
        gram = np.exp(-(diff * diff) / (2.0 * 0.05**2)) + 1e-4 * np.eye(xs.size)
        lower = chol(model)
        assert np.linalg.norm(lower @ lower.T - gram) <= 1e-10

    def test_capacity_cap(self):
        model = GpModel(BENCH_KERNEL, NOISE_STD, max_points=3)
        rng = SplitMix64(7014)
        for _ in range(3):
            model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
        with pytest.raises(CapacityExceeded):
            model.add_point(0.0, 0.0)

    def test_from_data_over_cap(self):
        with pytest.raises(CapacityExceeded):
            GpModel.from_data(BENCH_KERNEL, NOISE_STD, [0.0, 0.1, 0.2], [0, 0, 0], max_points=2)

    def test_buffer_growth_preserves_posterior(self):
        rng = SplitMix64(7015)
        xs = [rng.uniform(-1.5, 1.5) for _ in range(80)]
        ys = normals(rng, 80)
        incremental = GpModel(BENCH_KERNEL, NOISE_STD)
        for x, y in zip(xs, ys):
            incremental.add_point(x, y)  # crosses the 64-slot boundary
        batch = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys)
        for q in (-1.2, -0.3, 0.0, 0.9):
            mu_i, sig_i = incremental.posterior(q)
            mu_b, sig_b = batch.posterior(q)
            assert mu_i == pytest.approx(mu_b, abs=1e-9)
            assert sig_i == pytest.approx(sig_b, abs=1e-9)

    def test_weights_exact_size_across_regrowth(self):
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        assert model._alpha.shape == (0,)
        rng = SplitMix64(7016)
        for _ in range(65):  # the 65th point regrows the buffers 64 -> 128
            model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
        assert model._chol.shape == (128, 128)
        assert model._alpha.shape == (65,)

    def test_update_after_query_reuses_its_solve_bits(self):
        # add_point at the point just queried takes the query's k and
        # L^-1 k; a model whose query is forgotten builds and solves them
        # again, to the same bits, and returns the same post-update
        # posterior (its closed form is checked in test_screening)
        rng = SplitMix64(7010)
        reused = GpModel(BENCH_KERNEL, NOISE_STD, max_points=300)
        recomputed = GpModel(BENCH_KERNEL, NOISE_STD, max_points=300)
        for _ in range(150):  # past the 64- and 128-point buffer regrowths
            x, y = rng.uniform(-1.5, 1.5), rng.normal()
            assert reused.posterior(x) == recomputed.posterior(x)
            recomputed._query = None
            assert reused.add_point(x, y) == recomputed.add_point(x, y)
            assert np.array_equal(chol(reused), chol(recomputed))
            assert np.array_equal(reused._alpha, recomputed._alpha)
            assert reused.posterior(x) == recomputed.posterior(x)

    def test_update_elsewhere_ignores_the_last_query(self):
        rng = SplitMix64(7011)
        xs = [rng.uniform(-1.5, 1.5) for _ in range(30)]
        ys = normals(rng, 30)
        model = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs[:20], ys[:20])
        for x, y in zip(xs[20:], ys[20:]):
            model.posterior(x + 0.01)
            model.add_point(x, y)
        batch = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys)
        assert np.allclose(chol(model), chol(batch), rtol=0.0, atol=1e-12)
        # a query at the same x before the previous update is stale
        x = rng.uniform(-1.5, 1.5)
        model.posterior(x)
        model.add_point(xs[0] + 0.5, 0.0)
        model.add_point(x, 0.3)
        fresh = GpModel.from_data(
            BENCH_KERNEL, NOISE_STD, xs + [xs[0] + 0.5, x], list(ys) + [0.0, 0.3]
        )
        assert np.allclose(chol(model), chol(fresh), rtol=0.0, atol=1e-12)

    def test_jitter_ladder_recovers_duplicate_inputs(self):
        model = GpModel(BENCH_KERNEL, 1e-9)
        model.add_point(0.5, 1.0)
        model.add_point(0.5, 1.0)
        _, sigma = model.posterior(0.5)
        assert math.isfinite(sigma)


def narrow_copy(model: GpModel) -> GpModel:
    """The same model with every buffer exactly model.size wide."""
    m = model.size
    narrow = GpModel(model.kernel, model.noise_std, model.max_points)
    narrow._x = model._x[:m].copy()
    narrow._y = model._y[:m].copy()
    narrow._chol = model._chol[:m, :m].copy()
    narrow._alpha = model._alpha.copy()
    narrow._m = m
    return narrow


def grown_model(m: int, seed: int = 7050) -> GpModel:
    rng = SplitMix64(seed)
    model = GpModel(BENCH_KERNEL, NOISE_STD)
    for _ in range(m):
        model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
    return model


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLiveFactorSolves:
    """Triangular solves read the live factor in place, with unchanged bits."""

    QUERIES = (-1.5, -0.77, 0.0, 0.3141, 1.5)

    def test_same_bits_as_strided_reference_while_growing(self):
        rng = SplitMix64(7051)
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        capacities = set()
        for _ in range(300):  # crosses the 64, 128 and 256 doublings
            model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
            m = model.size
            capacities.add(model._chol.shape[0])
            b1 = np.asarray(normals(rng, m))
            b2 = np.reshape(normals(rng, 3 * m), (m, 3))
            assert np.array_equal(model._solve_lower(b1), solve_lower_strided(model, b1))
            assert np.array_equal(model._solve_lower(b2), solve_lower_strided(model, b2))
            narrow = narrow_copy(model)
            for q in self.QUERIES:
                assert model.posterior(q) == narrow.posterior(q)
        assert capacities == {64, 128, 256, 512}

    def test_grid_same_bits_as_narrow_buffers(self):
        model = grown_model(200)
        grid = np.linspace(-1.5, 1.5, 41)
        for got, want in zip(model.posterior_grid(grid), narrow_copy(model).posterior_grid(grid)):
            assert np.array_equal(got, want)

    def test_posterior_does_not_copy_the_factor(self):
        model = grown_model(500)
        assert model._chol.shape == (512, 512)
        # a copy of the 500 x 500 factor alone would be 2.0 MB
        assert peak_bytes(lambda: model.posterior(0.123)) < 64 * 1024

    def test_posterior_grid_does_not_copy_the_factor(self):
        model = grown_model(500)
        grid = np.linspace(-1.5, 1.5, 3)
        assert peak_bytes(lambda: model.posterior_grid(grid)) < 64 * 1024

    def test_add_point_does_not_copy_the_factor(self):
        model = grown_model(500)
        assert model._chol.shape == (512, 512)
        assert peak_bytes(lambda: model.add_point(0.123, 0.5)) < 64 * 1024

    def test_factor_and_weights_independent_of_buffer_capacity(self):
        rng = SplitMix64(7052)
        points = [(rng.uniform(-1.5, 1.5), rng.normal()) for _ in range(100)]
        models = [GpModel(BENCH_KERNEL, NOISE_STD, max_points=cap) for cap in (100, 1000)]
        for model in models:
            for x, y in points:
                model.add_point(x, y)
        tight, spare = models
        assert (tight._chol.shape[0], spare._chol.shape[0]) == (100, 128)
        assert np.array_equal(chol(tight), chol(spare))
        assert tight._alpha.tobytes() == spare._alpha.tobytes()

    def test_zero_pivot_raises_numerical_breakdown(self):
        model = grown_model(100)
        model._chol[40, 40] = 0.0
        with pytest.raises(NumericalBreakdown):
            model._solve_lower(np.ones(100))
        # far from the data k is ~0, so only the solve itself can object
        with pytest.raises(NumericalBreakdown):
            model.posterior(3.0)
        with pytest.raises(NumericalBreakdown):
            model.posterior_grid(np.linspace(-1.5, 1.5, 5))
        with pytest.raises(NumericalBreakdown):
            model.add_point(0.2, 1.0)


class TestWithOutputs:
    """A second target vector on a shared factor, without refactorizing."""

    def make_pair(self, seed=7030, m=90):
        rng = SplitMix64(seed)
        xs = np.linspace(-1.5, 1.5, m)
        ys_a, ys_b = normals(rng, m), normals(rng, m)
        return xs, ys_a, ys_b

    def test_same_bits_as_from_data(self):
        xs, ys_a, ys_b = self.make_pair()
        base = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys_a, max_points=500)
        shared = base.with_outputs(ys_b)
        direct = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys_b, max_points=500)
        assert shared.max_points == direct.max_points == 500
        assert np.array_equal(chol(shared), chol(direct))
        assert np.array_equal(shared.outputs, direct.outputs)
        assert shared._alpha.shape == (xs.size,)
        assert np.array_equal(shared._alpha, direct._alpha)
        for q in (-1.47, -0.3, 0.0, 0.71, 1.5):
            assert shared.posterior(q) == direct.posterior(q)
        grid = np.linspace(-1.5, 1.5, 101)
        for got, want in zip(shared.posterior_grid(grid), direct.posterior_grid(grid)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [64, 10])  # a full buffer, and one with room
    @pytest.mark.parametrize("writer", ["sharer", "base"])
    def test_add_point_leaves_the_other_model_unchanged(self, m, writer):
        xs, ys_a, ys_b = self.make_pair(m=m)
        base = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys_a)
        shared = base.with_outputs(ys_b)
        updated, other = (shared, base) if writer == "sharer" else (base, shared)
        own_ys = ys_b if writer == "sharer" else ys_a

        def bits(model):
            return (model.inputs, chol(model), *model.posterior_grid(xs))

        before = bits(other)
        updated.add_point(0.123, 4.0)
        updated.add_point(-0.456, -4.0)
        assert updated.size == m + 2 and other.size == m
        assert not np.shares_memory(updated._chol, other._chol)
        assert not np.shares_memory(updated._x, other._x)
        for got, want in zip(bits(other), before):
            assert got.tobytes() == want.tobytes()
        # the copied model carries on as if it had been built on its own
        fresh = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, own_ys)
        fresh.add_point(0.123, 4.0)
        fresh.add_point(-0.456, -4.0)
        for got, want in zip(bits(updated), bits(fresh)):
            assert got.tobytes() == want.tobytes()
        other.add_point(0.9, 1.0)
        assert updated.posterior(0.9) == fresh.posterior(0.9)

    def test_shared_buffers_are_read_only(self):
        xs, ys_a, ys_b = self.make_pair(m=10)
        base = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys_a)
        shared = base.with_outputs(ys_b)
        for model in (base, shared):
            with pytest.raises(ValueError, match="read-only"):
                model._chol[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                model._x[0] = 1.0

    def test_empty_model(self):
        empty = GpModel(BENCH_KERNEL, NOISE_STD).with_outputs([])
        assert empty.size == 0
        assert empty._alpha.shape == (0,)
        assert empty.posterior(0.4) == (0.0, BENCH_KERNEL.sigma_f)

    def test_rejects_wrong_length(self):
        xs, ys_a, _ = self.make_pair(m=10)
        base = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys_a)
        with pytest.raises(InvalidParam):
            base.with_outputs(ys_a[:9])
        with pytest.raises(InvalidParam):
            base.with_outputs(np.reshape(ys_a, (2, 5)))

    def test_same_factor(self):
        xs, ys_a, ys_b = self.make_pair(m=30)
        base = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys_a)
        shared = base.with_outputs(ys_b)
        again = shared.with_outputs(ys_a)
        assert base.same_factor(shared) and shared.same_factor(base)
        assert again.same_factor(base)
        # equal bits are not enough: sharing is by construction
        direct = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys_b)
        assert np.array_equal(chol(direct), chol(base))
        assert not base.same_factor(direct)
        assert not GpModel(BENCH_KERNEL, NOISE_STD).same_factor(GpModel(BENCH_KERNEL, NOISE_STD))
        shared.add_point(0.0, 1.0)
        assert not base.same_factor(shared) and not shared.same_factor(again)
        assert base.same_factor(again)


class TestNumericalGuards:
    def test_clamp_small_negative_variance(self):
        assert _clamp_var(-5e-13) == 0.0
        assert _clamp_var(0.0) == 0.0
        assert _clamp_var(2.5) == 2.5

    def test_large_negative_variance_raises(self):
        with pytest.raises(NumericalBreakdown):
            _clamp_var(-1e-11)

    def test_cholesky_jitter_gives_up_on_indefinite_matrix(self):
        with pytest.raises(NumericalBreakdown):
            _cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_invalid_model_params(self):
        with pytest.raises(InvalidParam):
            GpModel(BENCH_KERNEL, noise_std=0.0)
        with pytest.raises(InvalidParam):
            GpModel(BENCH_KERNEL, NOISE_STD, max_points=0)


class TestBeta:
    def test_frozen_benchmark_value(self):
        # 2 ln(3 / (2 * 0.01 * 1e-3) + 100) = 2 ln(150100)
        beta = compute_beta(0.01, 1e-3, -1.5, 1.5)
        assert beta == pytest.approx(BETA_D01_T1E3, rel=1e-12)
        assert beta == pytest.approx(2.0 * math.log(150100.0), rel=1e-12)

    def test_positive(self):
        assert compute_beta(0.5, 10.0, 0.0, 1.0) > 0.0

    def test_monotone_in_tau(self):
        b1 = compute_beta(0.01, 1e-3, -1.5, 1.5)
        b2 = compute_beta(0.01, 5e-4, -1.5, 1.5)
        assert b2 > b1

    def test_monotone_in_delta(self):
        b1 = compute_beta(0.01, 1e-3, -1.5, 1.5)
        b2 = compute_beta(0.02, 1e-3, -1.5, 1.5)
        assert b2 < b1

    def test_invalid_args(self):
        with pytest.raises(InvalidParam):
            compute_beta(0.0, 1e-3, -1.5, 1.5)
        with pytest.raises(InvalidParam):
            compute_beta(1.0, 1e-3, -1.5, 1.5)
        with pytest.raises(InvalidParam):
            compute_beta(0.01, 0.0, -1.5, 1.5)
        with pytest.raises(InvalidParam):
            compute_beta(0.01, 1e-3, 1.5, 1.5)


class TestBoundContext:
    def test_derived_floor(self):
        ctx = make_ctx()
        assert ctx.beta == pytest.approx(BETA_D01_T1E3, rel=1e-12)
        assert ctx.eta_bar_lower == pytest.approx(ETA_BAR_D01, rel=1e-12)

    def test_inconsistent_beta_rejected(self):
        with pytest.raises(InvalidParam):
            BoundContext(
                delta=0.01,
                tau=1e-3,
                beta=10.0,
                eta_bar_lower=ETA_BAR_D01,
                lip_f=0.0,
                domain_lo=-1.5,
                domain_hi=1.5,
            )

    def test_negative_lipschitz_rejected(self):
        with pytest.raises(InvalidParam):
            make_ctx(lip_f=-1.0)


class TestErrorBound:
    def test_empty_dataset_bound(self):
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        eta = error_bound(model, make_ctx(), 0.0)
        assert eta == pytest.approx(2.0 * math.sqrt(BETA_D01_T1E3), rel=1e-12)
        assert eta == pytest.approx(9.764858224315006, rel=1e-12)

    def test_after_update_at_query_point(self):
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        model.add_point(0.4, 2.0)
        assert error_bound(model, make_ctx(), 0.4) <= ETA_BAR_D01

    def test_scales_with_posterior_sigma(self):
        rng = SplitMix64(7020)
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        for _ in range(5):
            model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
        ctx = make_ctx()
        for q in (-1.0, 0.0, 1.0):
            _, sigma = model.posterior(q)
            assert error_bound(model, ctx, q) == pytest.approx(
                2.0 * math.sqrt(ctx.beta) * sigma, rel=1e-12
            )

    def test_out_of_domain(self):
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        with pytest.raises(OutOfDomain):
            error_bound(model, make_ctx(), 1.5001)


def lipschitz_on_grid(model, domain_lo, domain_hi, grid_step):
    grid = domain_grid(domain_lo, domain_hi, grid_step)
    mu, sigma = model.posterior_grid(grid)
    return estimate_lipschitz(grid, mu), estimate_lipschitz(grid, sigma)


def sigma_on_grid(model, ctx, grid_step):
    grid = domain_grid(ctx.domain_lo, ctx.domain_hi, grid_step)
    return model.posterior_grid(grid)[1]


class TestDomainGrid:
    def test_spacing_and_endpoints(self):
        grid = domain_grid(-1.5, 1.5, 1e-3)
        assert grid.size == 3001
        assert grid[0] == -1.5 and grid[-1] == 1.5

    def test_coarse_step_keeps_two_points(self):
        assert domain_grid(-1.0, 1.0, 10.0).tolist() == [-1.0, 1.0]

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidParam):
            domain_grid(-1.0, 1.0, 0.0)
        with pytest.raises(InvalidParam):
            domain_grid(1.0, 1.0, 1e-3)


class TestLipschitzEstimate:
    def test_empty_model_flat(self):
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        lip_mu, lip_sigma = lipschitz_on_grid(model, -1.5, 1.5, 1e-3)
        assert lip_mu == 0.0
        assert lip_sigma == 0.0

    def test_far_datapoint_flat_window(self):
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        model.add_point(100.0, 3.0)
        lip_mu, _ = lipschitz_on_grid(model, -1.0, 1.0, 1e-3)
        assert lip_mu == pytest.approx(0.0, abs=1e-6)

    def test_grid_refinement_consistency(self):
        rng = SplitMix64(7021)
        model = GpModel(KernelParams(1.0, 0.3), NOISE_STD)
        for _ in range(10):
            model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
        coarse = lipschitz_on_grid(model, -1.5, 1.5, 1e-3)
        fine = lipschitz_on_grid(model, -1.5, 1.5, 1e-4)
        assert coarse[0] == pytest.approx(fine[0], rel=0.05)
        assert coarse[1] == pytest.approx(fine[1], rel=0.05)


class TestGammaCondition:
    def test_holds_for_prior_model(self):
        # gamma = (10 + 80 + 0) * 1e-3 = 0.09 vs sqrt(beta) * 1 = 4.88
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        ctx = make_ctx(lip_f=10.0)
        sigma_min = float(sigma_on_grid(model, ctx, 1e-2).min())
        assert check_gamma_condition(ctx, 80.0, 0.0, sigma_min) is True

    def test_fails_for_huge_tau(self):
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        ctx = make_bound_context(
            delta=0.01,
            tau=1e3,
            domain_lo=-1.5,
            domain_hi=1.5,
            noise_std=NOISE_STD,
            lip_f=10.0,
        )
        sigma_min = float(sigma_on_grid(model, ctx, 1e-2).min())
        assert check_gamma_condition(ctx, 0.0, 0.0, sigma_min) is False

    def test_sigma_slope_enters_scaled_by_root_beta(self):
        # gamma = sqrt(beta) lip_sigma tau against sqrt(beta) * 1: the
        # condition holds while lip_sigma * 1e-3 stays below 1
        ctx = make_ctx()
        assert check_gamma_condition(ctx, 0.0, 999.0, 1.0) is True
        assert check_gamma_condition(ctx, 0.0, 1001.0, 1.0) is False


class TestProbabilisticCoverage:
    def test_uniform_bound_violation_rate_below_delta(self):
        # draw functions from the prior, fit each from 30 noisy samples,
        # and count grid points where the truth escapes mu +/- eta
        delta = 0.05
        kernel = KernelParams(sigma_f=1.0, length_scale=0.1)
        grid = np.linspace(-1.5, 1.5, 301)
        beta = compute_beta(delta, 1e-3, -1.5, 1.5)
        rng = SplitMix64(31415)
        fractions = []
        for _ in range(200):
            f = sample_gp_prior(1.0, 0.1, grid, normals(rng, grid.size))
            idx = sorted({int(rng.uniform(0, grid.size)) for _ in range(30)})
            xs = grid[idx]
            ys = f[idx] + np.array(normals(rng, len(idx), sigma=NOISE_STD))
            model = GpModel.from_data(kernel, NOISE_STD, xs, ys)
            mu, sigma = model.posterior_grid(grid)
            eta = 2.0 * math.sqrt(beta) * sigma
            fractions.append(float(np.mean(np.abs(f - mu) > eta)))
        assert sum(fractions) / len(fractions) < delta

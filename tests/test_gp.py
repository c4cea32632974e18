"""Exact GP regression: posteriors, incremental updates, error bounds."""

import math

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
    check_gamma_condition,
    compute_beta,
    domain_grid,
    error_bound,
    estimate_lipschitz,
    kernel_eval,
    make_bound_context,
)
from gpconsensus.rng import SplitMix64
from oracles import gp_posterior_reference, sample_gp_prior

ORACLE_TOL = 1e-8
CHOL_TOL = 1e-9
VAR_MONOTONE_TOL = 1e-12

BENCH_KERNEL = KernelParams(sigma_f=1.0, length_scale=0.05)
NOISE_STD = 0.01

# frozen evaluations of the confidence-scaling formula on [-1.5, 1.5]
BETA_D01_T1E3 = 23.838114035243105  # delta=0.01, tau=1e-3
ETA_BAR_D01 = 0.09764858224315007  # 2 sqrt(beta) * 0.01


def make_ctx(lip_f=0.0, lip_mu=0.0, lip_sigma=0.0, delta=0.01, tau=1e-3):
    return make_bound_context(
        delta=delta,
        tau=tau,
        domain_lo=-1.5,
        domain_hi=1.5,
        noise_std=NOISE_STD,
        lip_f=lip_f,
        lip_mu=lip_mu,
        lip_sigma=lip_sigma,
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
            ys = rng.normals(m)
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
        ys = rng.normals(12)
        model = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys)
        grid = np.linspace(-1.5, 1.5, 31)
        mu_g, sigma_g = model.posterior_grid(grid)
        for k, q in enumerate(grid):
            mu, sigma = model.posterior(float(q))
            assert mu_g[k] == pytest.approx(mu, abs=1e-12)
            assert sigma_g[k] == pytest.approx(sigma, abs=1e-12)

    def test_mean_is_bitwise_posterior_mean(self):
        rng = SplitMix64(7004)
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        assert model.mean(0.2) == model.posterior(0.2)[0] == 0.0
        for _ in range(40):
            model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
            for _ in range(5):
                q = rng.uniform(-1.5, 1.5)
                assert model.mean(q) == model.posterior(q)[0]

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
        diff = np.linalg.norm(model.chol - batch.chol)
        assert diff <= CHOL_TOL

    def test_chol_reconstructs_gram(self):
        rng = SplitMix64(7013)
        model = GpModel(BENCH_KERNEL, NOISE_STD)
        for _ in range(40):
            model.add_point(rng.uniform(-1.5, 1.5), rng.normal())
        xs = model.inputs
        diff = xs[:, None] - xs[None, :]
        gram = np.exp(-(diff * diff) / (2.0 * 0.05**2)) + 1e-4 * np.eye(xs.size)
        lower = model.chol
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
        ys = rng.normals(80)
        incremental = GpModel(BENCH_KERNEL, NOISE_STD)
        for x, y in zip(xs, ys):
            incremental.add_point(x, y)  # crosses the 64-slot boundary
        batch = GpModel.from_data(BENCH_KERNEL, NOISE_STD, xs, ys)
        for q in (-1.2, -0.3, 0.0, 0.9):
            mu_i, sig_i = incremental.posterior(q)
            mu_b, sig_b = batch.posterior(q)
            assert mu_i == pytest.approx(mu_b, abs=1e-9)
            assert sig_i == pytest.approx(sig_b, abs=1e-9)

    def test_jitter_ladder_recovers_duplicate_inputs(self):
        model = GpModel(BENCH_KERNEL, 1e-9)
        model.add_point(0.5, 1.0)
        model.add_point(0.5, 1.0)
        _, sigma = model.posterior(0.5)
        assert math.isfinite(sigma)


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
                lip_mu=0.0,
                lip_sigma=0.0,
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
    return estimate_lipschitz(grid, *model.posterior_grid(grid))


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
        ctx = make_ctx(lip_f=10.0, lip_mu=80.0)
        assert check_gamma_condition(ctx, sigma_on_grid(model, ctx, 1e-2)) is True

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
        assert check_gamma_condition(ctx, sigma_on_grid(model, ctx, 1e-2)) is False


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
            f = sample_gp_prior(1.0, 0.1, grid, rng.normals(grid.size))
            idx = sorted({int(rng.uniform(0, grid.size)) for _ in range(30)})
            xs = grid[idx]
            ys = f[idx] + np.array(rng.normals(len(idx), sigma=NOISE_STD))
            model = GpModel.from_data(kernel, NOISE_STD, xs, ys)
            mu, sigma = model.posterior_grid(grid)
            eta = 2.0 * math.sqrt(beta) * sigma
            fractions.append(float(np.mean(np.abs(f - mu) > eta)))
        assert sum(fractions) / len(fractions) < delta

"""Trajectory metrics and the two-agent closed-form reference."""

import numpy as np
import pytest

from gpconsensus.analysis import (
    appendix_solution,
    average_state,
    consensus_error,
)
from gpconsensus.errors import InvalidParam
from gpconsensus.rng import SplitMix64
from oracles import relaxed_disagreement_rate, trend_slope

EXACT_TOL = 1e-12
RESIDUAL_TOL = 1e-6
# 2 sqrt(beta) * sigma_n and 2/c * N * eta_bar for the stock bound setup
ETA_BAR = 0.09764858224315007
EPSILON = 0.7811886579452005

# closed form at (x0=(1,0), eps=0, c=1, t=1) and (x0=(1,0), eps=0.05, c=1, t=2)
SOL_T1 = (0.5676676416183064, 0.43233235838169365)
SOL_T2_BIASED = (0.6091578194443671, 0.5908421805556329)
ERR0_BENCH = 0.6897100840208152


class TestAverageState:
    def test_benchmark_mean(self):
        assert average_state((-0.52, 0.15, -0.06, -0.71)) == -0.285

    def test_single_agent(self):
        assert average_state([1.25]) == 1.25

    def test_empty_rejected(self):
        with pytest.raises(InvalidParam):
            average_state([])


class TestConsensusError:
    def test_frozen_benchmark_value(self):
        err = consensus_error((-0.52, 0.15, -0.06, -0.71), -0.285)
        assert abs(err - ERR0_BENCH) <= EXACT_TOL

    def test_zero_at_consensus(self):
        assert consensus_error((0.4, 0.4, 0.4), 0.4) == 0.0

    def test_permutation_invariant(self):
        rng = SplitMix64(5)
        for _ in range(50):
            x = [rng.uniform(-2.0, 2.0) for _ in range(6)]
            ref = rng.uniform(-1.0, 1.0)
            shuffled = list(x)
            # Fisher-Yates with the deterministic stream
            for i in range(len(shuffled) - 1, 0, -1):
                j = int(rng.random() * (i + 1))
                shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
            assert abs(consensus_error(x, ref) - consensus_error(shuffled, ref)) <= EXACT_TOL


class TestAppendixSolution:
    def test_frozen_unbiased_point(self):
        got = appendix_solution((1.0, 0.0), 0.0, 1.0, 1.0)
        assert abs(got[0] - SOL_T1[0]) <= EXACT_TOL
        assert abs(got[1] - SOL_T1[1]) <= EXACT_TOL

    def test_frozen_biased_point(self):
        got = appendix_solution((1.0, 0.0), 0.05, 1.0, 2.0)
        assert abs(got[0] - SOL_T2_BIASED[0]) <= EXACT_TOL
        assert abs(got[1] - SOL_T2_BIASED[1]) <= EXACT_TOL

    def test_initial_condition(self):
        got = appendix_solution((0.3, -0.9), 0.02, 2.0, 0.0)
        assert abs(got[0] - 0.3) <= 1e-15
        assert abs(got[1] - (-0.9)) <= 1e-15

    def test_satisfies_the_ode(self):
        # central difference of the closed form against the vector field
        h = 1e-4
        for eps, c in [(0.0, 1.0), (0.05, 1.0), (-0.1, 2.5)]:
            for t in [0.1, 0.7, 2.0, 5.0]:
                xp = appendix_solution((1.0, 0.0), eps, c, t + h)
                xm = appendix_solution((1.0, 0.0), eps, c, t - h)
                x = appendix_solution((1.0, 0.0), eps, c, t)
                d1 = (xp[0] - xm[0]) / (2 * h)
                d2 = (xp[1] - xm[1]) / (2 * h)
                assert abs(d1 - (eps - c * (x[0] - x[1]))) <= RESIDUAL_TOL
                assert abs(d2 - (eps - c * (x[1] - x[0]))) <= RESIDUAL_TOL

    def test_mean_drifts_linearly(self):
        for t in np.linspace(0.0, 10.0, 21):
            a, b = appendix_solution((1.0, 0.0), 0.05, 1.0, float(t))
            assert abs(0.5 * (a + b) - (0.5 + 0.05 * t)) <= EXACT_TOL

    def test_zero_bias_converges_to_initial_mean(self):
        a, b = appendix_solution((1.0, 0.0), 0.0, 1.0, 20.0)
        assert abs(a - 0.5) <= 1e-12
        assert abs(b - 0.5) <= 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidParam):
            appendix_solution((1.0, 0.0), 0.0, 0.0, 1.0)
        with pytest.raises(InvalidParam):
            appendix_solution((1.0, 0.0), 0.0, 1.0, -0.5)


class TestTrendSlope:
    def test_exact_line(self):
        t = np.linspace(0.0, 5.0, 40)
        assert abs(trend_slope(t, 3.0 * t + 1.0) - 3.0) <= 1e-10

    def test_flat(self):
        t = np.linspace(0.0, 5.0, 40)
        assert abs(trend_slope(t, np.full_like(t, 2.0))) <= 1e-12

    def test_needs_two_samples(self):
        with pytest.raises(InvalidParam):
            trend_slope([1.0], [2.0])


class TestRelaxedDisagreementRate:
    def test_known_disagreement_point(self):
        # moderate disagreement with mid eta: the stricter rule stays
        # silent while the threshold-relaxed rule fires
        rate = relaxed_disagreement_rate(
            [[0.25]], [[0.5]], [[0.0]], 1.0, 4, ETA_BAR, EPSILON
        )
        assert rate == 1.0

    def test_agreement_when_eta_dominates(self):
        rate = relaxed_disagreement_rate(
            [[9.7]], [[0.5]], [[0.0]], 1.0, 4, ETA_BAR, EPSILON
        )
        assert rate == 0.0

    def test_mixed_array(self):
        rate = relaxed_disagreement_rate(
            [[0.25, 9.7]], [[0.5, 0.5]], [[0.0, 0.0]], 1.0, 4, ETA_BAR, EPSILON
        )
        assert rate == 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParam):
            relaxed_disagreement_rate([[0.1]], [[0.1, 0.2]], [[0.0]], 1.0, 4, ETA_BAR, EPSILON)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParam):
            relaxed_disagreement_rate([], [], [], 1.0, 4, ETA_BAR, EPSILON)

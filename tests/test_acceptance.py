"""End-to-end acceptance gate: eleven numbered checks.

Covers the headline single-run study, the four-case Monte Carlo
comparison, trigger and dataset budgets, the probabilistic bound
machinery, the auxiliary averaging dynamics, the two-agent closed-form
study, and byte-level determinism. One test per criterion; the -v line
per test is the pass/fail record, and each test prints a one-line
summary with the measured numbers. Empirical thresholds were frozen
from pilot ensembles before this suite was wired up.
"""

import math
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from oracles import (
    classify_agent,
    error_bound,
    gp_posterior_reference,
    normals,
    sample_gp_prior,
    trend_slope,
)

from gpconsensus import engine
from gpconsensus.analysis import appendix_solution
from gpconsensus.config import SimConfig
from gpconsensus.engine import run_episode, run_monte_carlo
from gpconsensus.errors import GpConsensusError
from gpconsensus.gp import (
    BoundContext,
    GpModel,
    KernelParams,
    compute_beta,
)
from gpconsensus.presets import BENCH_INITIAL_STATES, case_preset
from gpconsensus.reporting import (
    build_meta,
    write_montecarlo_csv,
    write_summary_csv,
    write_trajectory_csv,
)
from gpconsensus.rng import SplitMix64
from gpconsensus.triggers import evaluate_trigger, trigger_threshold

EPSILON_STOCK = 0.7811886579452005
ETA_BAR_STOCK = 0.09764858224315007
NOISE_STD = 0.01
HEADLINE_SEEDS = tuple(range(10))
MC_RUNS = 20
CASES = ("a", "b", "c", "d")


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def headline():
    """Case d over ten seeds with the stock initial condition."""
    runs = []
    for seed in HEADLINE_SEEDS:
        cfg = replace(case_preset("d"), seed=seed)
        t0 = time.perf_counter()
        traj, summary = run_episode(cfg)
        runs.append((traj, summary, time.perf_counter() - t0))
    return runs


class RunStats(NamedTuple):
    """What the checks read of one sweep run beyond its record; NaN where
    the run had no event."""

    max_sigma_after: float
    last_event_t: float
    aux_mean_drift: float
    aux_final_gap: float


def run_stats(traj, summary) -> RunStats:
    sigmas = [ev.sigma_after for ev in summary.events]
    aux_means = traj.x_bar.mean(axis=1)
    return RunStats(
        max_sigma_after=max(sigmas) if sigmas else math.nan,
        last_event_t=summary.events[-1].t if summary.events else math.nan,
        aux_mean_drift=float(np.max(np.abs(aux_means - summary.x_bar_star))),
        aux_final_gap=float(np.linalg.norm(traj.x_bar[-1] - summary.x_bar_star)),
    )


@pytest.fixture(scope="module")
def mc():
    """20 seeds per case, uniform initial states, full horizon.

    Returns the sweep, its wall time and each record's ``RunStats`` (None
    for a failed run). At jobs=1 every run is one ``engine.run_episode``
    call in this process, in record order, so a wrapper sees them all.
    """
    stats = []
    episode = engine.run_episode

    def recording(config):
        try:
            traj, summary = episode(config)
        except GpConsensusError:
            stats.append(None)
            raise
        stats.append(run_stats(traj, summary))
        return traj, summary

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "run_episode", recording)
        t0 = time.perf_counter()
        out = run_monte_carlo(SimConfig(seed=0), MC_RUNS, CASES, jobs=1)
        wall = time.perf_counter() - t0
    assert len(stats) == len(out.records)
    return out, wall, stats


@pytest.fixture(scope="module")
def biased_pair():
    """Two agents, conventional law, constant prediction bias 0.05."""
    cfg = SimConfig(
        n_agents=2,
        edges=((1, 2),),
        plant="appendix",
        controller="conventional",
        learning="offline",
        predictor="oracle_biased",
        eps_bias=0.05,
        c=1.0,
        c_bar=1.0,
        t_end=10.0,
        initial_states=(1.0, 0.0),
        offline_dataset_size=0,
        seed=0,
        case_label="appendix",
    )
    return run_episode(cfg)


def test_criterion_01_headline_band_and_median(headline):
    finals = [s.final_error for _, s, _ in headline]
    eps = headline[0][1].epsilon
    assert eps == pytest.approx(EPSILON_STOCK, abs=1e-12)
    assert all(
        s.x_bar_star == pytest.approx(sum(BENCH_INITIAL_STATES) / 4, abs=1e-15)
        for _, s, _ in headline
    )
    med = float(np.median(finals))
    worst_wall = max(w for _, _, w in headline)
    ok = max(finals) <= eps and med <= 0.05 and worst_wall <= 30.0
    detail = (
        f"max_final={max(finals):.6g} median={med:.6g} "
        f"eps={eps:.6g} worst_wall={worst_wall:.1f}s"
    )
    assert report(1, ok, detail), detail


def test_criterion_02_controller_ordering(mc):
    summary, wall, _ = mc
    med = {}
    for case in CASES:
        finals = [
            r.final_error for r in summary.records if r.case == case and not r.failed
        ]
        assert len(finals) == MC_RUNS
        med[case] = float(np.median(finals))
    mask = (summary.times >= 5.0) & (summary.times <= 10.0)
    slopes = {}
    for case in ("a", "b"):
        mean_err = np.nanmean(summary.errors[case], axis=0)
        slopes[case] = trend_slope(summary.times[mask], mean_err[mask])
    clauses = {
        "median (d) <= (c)": med["d"] <= med["c"],
        "max(a,b) >= 2*max(c,d)": max(med["a"], med["b"]) >= 2.0 * max(med["c"], med["d"]),
        "slope(a) >= 0": slopes["a"] >= 0.0,
        "slope(b) >= 0": slopes["b"] >= 0.0,
        "wall <= 20 min": wall <= 1200.0,
    }
    failing = [name for name, held in clauses.items() if not held]
    detail = (
        f"medians a={med['a']:.4g} b={med['b']:.4g} c={med['c']:.4g} d={med['d']:.4g} "
        f"slopes a={slopes['a']:.2e} b={slopes['b']:.2e} wall={wall:.0f}s"
        + (f" failing={failing}" if failing else "")
    )
    assert report(2, not failing, detail), detail


def test_criterion_03_trigger_counts_and_quiet_tail(headline):
    _, summary, _ = headline[0]  # seed 0 is the stock single run
    counts = summary.trigger_counts
    last_t = max((e.t for e in summary.events), default=0.0)
    ok = all(20 <= v <= 300 for v in counts) and last_t <= 8.0
    detail = f"counts={counts} last_event_t={last_t:.3f}"
    assert report(3, ok, detail), detail


def test_criterion_04_online_dataset_budget(mc):
    summary, _, _ = mc
    means = {}
    for case in ("b", "d"):
        sizes = np.array(
            [r.max_dataset_size for r in summary.records if r.case == case and not r.failed],
            dtype=float,
        )
        means[case] = sizes.mean(axis=0)
    ok = all(float(v) < 150.0 for case in ("b", "d") for v in means[case])
    detail = " ".join(
        f"{case}=[{', '.join(f'{v:.1f}' for v in means[case])}]" for case in ("b", "d")
    )
    assert report(4, ok, f"per-agent mean max dataset size {detail}, budget < 150"), detail


def test_criterion_05_posterior_matches_dense_oracle():
    rng = SplitMix64(9005)
    worst_mu = worst_sigma = 0.0
    for trial in range(100):
        m = 1 + int(rng.uniform(0.0, 200.0))
        length_scale = 0.05 if trial % 2 == 0 else 0.3
        kernel = KernelParams(sigma_f=1.0, length_scale=length_scale)
        xs = [rng.uniform(-1.5, 1.5) for _ in range(m)]
        ys = normals(rng, m)
        model = GpModel.from_data(kernel, NOISE_STD, xs, ys)
        q = rng.uniform(-1.5, 1.5)
        mu, sigma = model.posterior(q)
        mu_ref, sigma_ref = gp_posterior_reference(1.0, length_scale, NOISE_STD, xs, ys, q)
        worst_mu = max(worst_mu, abs(mu - mu_ref))
        worst_sigma = max(worst_sigma, abs(sigma - sigma_ref))
    ok = worst_mu <= 1e-8 and worst_sigma <= 1e-8
    detail = f"max|dmu|={worst_mu:.2e} max|dsigma|={worst_sigma:.2e} over 100 instances"
    assert report(5, ok, detail), detail


def test_criterion_06_uniform_bound_coverage():
    t0 = time.perf_counter()
    delta = 0.05
    kernel = KernelParams(sigma_f=1.0, length_scale=0.1)
    grid = np.linspace(-1.5, 1.5, 301)
    beta = compute_beta(delta, 1e-3, -1.5, 1.5)
    rng = SplitMix64(9006)
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
    rate = sum(fractions) / len(fractions)
    wall = time.perf_counter() - t0
    ok = rate < delta and wall <= 120.0
    detail = f"mean violation fraction={rate:.4f} (< {delta}), wall={wall:.0f}s"
    assert report(6, ok, detail), detail


def test_criterion_07_post_update_noise_floor(headline, mc, biased_pair):
    worst = 0.0
    n_events = 0
    for _, summary, _ in headline:
        for e in summary.events:
            worst = max(worst, e.sigma_after)
            n_events += 1
    for stat in mc[2]:
        if stat is not None and not math.isnan(stat.max_sigma_after):
            worst = max(worst, stat.max_sigma_after)
    _, pair_summary = biased_pair
    for e in pair_summary.events:
        worst = max(worst, e.sigma_after)
        n_events += 1
    ok = n_events > 0 and worst <= NOISE_STD + 1e-12
    detail = f"max sigma_after={worst:.10f} over {n_events} logged events plus sweep maxima"
    assert report(7, ok, detail), detail


def test_criterion_08_trigger_partition_fuzz():
    ctx = BoundContext(
        delta=0.01,
        tau=1e-3,
        domain_lo=-1.5,
        domain_hi=1.5,
        noise_std=NOISE_STD,
        lip_f=10.1,
    )
    eta_bar = ctx.eta_bar_lower
    kernel = KernelParams(sigma_f=1.0, length_scale=0.05)
    rng = SplitMix64(9008)
    counts = {"S1": 0, "S2": 0, "S3": 0}
    for _ in range(10_000):
        x = rng.uniform(-1.5, 1.5)
        x_bar = rng.uniform(-1.5, 1.5)
        eta = rng.uniform(0.0, 3.0)
        rho = evaluate_trigger(eta, trigger_threshold("proposed", x, x_bar, 1.0, 4, eta_bar))
        region = classify_agent(eta, x, x_bar, 1.0, 4, eta_bar)
        counts[region] += 1
        if rho > 0.0:
            model = GpModel(kernel, NOISE_STD, max_points=1)
            model.add_point(x, rng.normal())
            eta_hat = error_bound(model, ctx, x)
            assert eta_hat <= eta_bar + 1e-12
        elif region == "S1":
            assert eta <= eta_bar + 1e-12
        else:
            xt = x - x_bar
            assert xt * xt >= eta * eta + 3.0 * eta_bar**2 - 1e-12
    ok = all(v > 200 for v in counts.values())
    detail = f"10000 tuples, regions hit {counts}"
    assert report(8, ok, detail), detail


def test_criterion_09_auxiliary_averaging(headline, mc, biased_pair):
    worst_drift = 0.0
    worst_gap = 0.0
    for traj, _, _ in headline:
        means = traj.x_bar.mean(axis=1)
        worst_drift = max(worst_drift, float(np.max(np.abs(means - means[0]))))
        worst_gap = max(worst_gap, float(np.linalg.norm(traj.x_bar[-1] - means[0])))
    for stat in mc[2]:
        if stat is not None:
            worst_drift = max(worst_drift, stat.aux_mean_drift)
            worst_gap = max(worst_gap, stat.aux_final_gap)
    pair_traj, _ = biased_pair
    pair_means = pair_traj.x_bar.mean(axis=1)
    worst_drift = max(worst_drift, float(np.max(np.abs(pair_means - pair_means[0]))))
    ok = worst_drift <= 1e-8 and worst_gap <= 1e-6
    detail = f"max mean drift={worst_drift:.2e} (<=1e-8), max final gap={worst_gap:.2e} (<=1e-6)"
    assert report(9, ok, detail), detail


def test_criterion_10_biased_pair_tracks_closed_form(biased_pair):
    traj, _ = biased_pair
    closed = np.array(
        [appendix_solution((1.0, 0.0), 0.05, 1.0, float(t)) for t in traj.t]
    )
    sup = float(np.max(np.abs(traj.x - closed)))
    drift_dev = float(np.max(np.abs(traj.x.mean(axis=1) - (0.5 + 0.05 * traj.t))))
    ok = sup <= 1e-3 and drift_dev <= 1e-3
    detail = f"sup|x - closed form|={sup:.2e}, sup|mean drift - bias*t|={drift_dev:.2e}"
    assert report(10, ok, detail), detail


def test_criterion_11_byte_identical_repeats(headline, mc, biased_pair, tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"

    traj_a, sum_a, _ = headline[0]
    traj_b, sum_b = run_episode(replace(case_preset("d"), seed=0))
    write_trajectory_csv(first / "trajectory_d.csv", traj_a, build_meta(sum_a))
    write_trajectory_csv(second / "trajectory_d.csv", traj_b, build_meta(sum_b))
    write_summary_csv(first / "summary.csv", [sum_a], 4, build_meta(sum_a))
    write_summary_csv(second / "summary.csv", [sum_b], 4, build_meta(sum_b))

    names = ["trajectory_d.csv", "summary.csv"]
    same = all((first / n).read_bytes() == (second / n).read_bytes() for n in names)

    mc_summary, _, _ = mc
    write_montecarlo_csv(first / "montecarlo.csv", mc_summary, {"runs": mc_summary.n_runs})
    write_montecarlo_csv(second / "montecarlo.csv", mc_summary, {"runs": mc_summary.n_runs})
    same = same and (
        (first / "montecarlo.csv").read_bytes() == (second / "montecarlo.csv").read_bytes()
    )
    detail = f"repeated seed-0 episode and sweep serialization identical={same}"
    assert report(11, same, detail), detail


def test_invariant_case_d_sweep_quiet_tail(mc):
    # the online disagreement-aware trigger must go quiet in the final
    # fifth of the horizon for at least 90 percent of the sweep runs
    mc_summary, _, stats = mc
    d_runs = [
        stat for r, stat in zip(mc_summary.records, stats) if r.case == "d" and stat is not None
    ]
    assert len(d_runs) == MC_RUNS
    quiet = sum(
        1 for stat in d_runs if math.isnan(stat.last_event_t) or stat.last_event_t <= 8.0
    )
    frac = quiet / len(d_runs)
    print(f"invariant: {quiet}/{len(d_runs)} runs quiet after t=8")
    assert frac >= 0.9


def test_invariant_case_d_dataset_size_tracks_noise_not_delta():
    # check 4's dataset size is set by where sigma climbs back above the
    # noise level, so it moves with sigma_n and stays put across the
    # confidence parameter delta; check 4 itself stays red
    for seed in (0, 1):
        sizes = {}
        for sigma_n in (0.01, 0.02):
            for delta in (0.01, 0.001):
                cfg = replace(
                    case_preset("d"), t_end=1.0, seed=seed, sigma_n=sigma_n, delta=delta
                )
                sizes[sigma_n, delta] = run_episode(cfg)[1].max_dataset_size
        print(f"invariant: seed {seed} max dataset sizes {sizes}")
        for sigma_n in (0.01, 0.02):
            assert sizes[sigma_n, 0.01] == sizes[sigma_n, 0.001]
        assert all(a > b for a, b in zip(sizes[0.01, 0.01], sizes[0.02, 0.01]))

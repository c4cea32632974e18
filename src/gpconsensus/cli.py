"""Command-line entry points.

Subcommands: run (one episode), montecarlo (seed sweep over cases),
appendix (two-agent bias study against the closed form), validate
(check a config and print the derived bounds). Exit codes: 0 success,
1 configuration problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .analysis import appendix_solution, average_state
from .config import SimConfig, parse_config_file
from .control import check_domain_containment
from .engine import prepare_run, run_episode, run_monte_carlo
from .errors import (
    CapacityExceeded,
    ConfigError,
    DisconnectedGraph,
    GpConsensusError,
    InvalidEdge,
    InvalidParam,
    NumericalBreakdown,
    OutOfDomain,
    SingularGain,
)
from .presets import CASE_IDS, apply_case, case_preset
from .reporting import (
    bound_meta,
    build_meta,
    fmt_bool,
    fmt_float,
    git_describe,
    write_montecarlo_csv,
    write_summary_csv,
    write_trajectory_csv,
)

_CONFIG_ERRORS = (ConfigError, InvalidParam, InvalidEdge, DisconnectedGraph)
_NUMERIC_ERRORS = (NumericalBreakdown, SingularGain, CapacityExceeded, OutOfDomain)


class _Parser(argparse.ArgumentParser):
    # route usage errors through the config-error exit code
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _resolve_config(case: str | None, config_path: str | None, seed: int | None) -> SimConfig:
    if case is None and config_path is None:
        raise ConfigError("provide --case and/or --config")
    base = case_preset(case) if case is not None else SimConfig()
    if config_path is not None:
        base = parse_config_file(config_path, base)
    if seed is not None:
        base = replace(base, seed=seed)
    return base


def cmd_run(args) -> int:
    config = _resolve_config(args.case, args.config, args.seed)
    traj, summary = run_episode(config)
    meta = build_meta(summary)
    traj_path = os.path.join(args.out, f"trajectory_{summary.case_label}.csv")
    sum_path = os.path.join(args.out, "summary.csv")
    write_trajectory_csv(traj_path, traj, meta)
    write_summary_csv(sum_path, [summary], config.n_agents, meta)
    if not summary.domain_ok:
        print(
            "warning: accuracy band around the initial mean leaves the domain",
            file=sys.stderr,
        )
    if not summary.gamma_ok:
        print(
            "warning: bound-validity (gamma) condition fails at t_end",
            file=sys.stderr,
        )
    print(
        f"case={summary.case_label} seed={summary.seed} "
        f"final_err={fmt_float(summary.final_error)} epsilon={fmt_float(summary.epsilon)} "
        f"triggers={','.join(str(v) for v in summary.trigger_counts)}"
    )
    print(f"wrote {traj_path} and {sum_path}")
    return 0


def cmd_montecarlo(args) -> int:
    base = _resolve_config(None, args.config, args.seed) if args.config else SimConfig(
        seed=args.seed if args.seed is not None else 0
    )
    cases = tuple(c.strip() for c in args.cases.split(",") if c.strip())
    mc = run_monte_carlo(base, args.runs, cases, jobs=args.jobs)
    # the meta block's bounds and digest; the sweep has already accepted it
    probe = prepare_run(apply_case(base, cases[0]))
    meta = {
        "cases": ",".join(cases),
        "runs": args.runs,
        "base_seed": base.seed,
        **bound_meta(probe.bound, probe.epsilon),
        "config": probe.digest,
        "source": git_describe(),
    }
    mc_path = os.path.join(args.out, "montecarlo.csv")
    sum_path = os.path.join(args.out, "summary.csv")
    write_montecarlo_csv(mc_path, mc, meta)
    write_summary_csv(sum_path, list(mc.records), base.n_agents, meta)
    n_failed = sum(1 for r in mc.records if r.failed)
    for case in cases:
        finals = [
            r.final_error for r in mc.records if r.case == case and not r.failed
        ]
        med = float(np.median(finals)) if finals else float("nan")
        print(f"case={case} runs={len(finals)} median_final_err={fmt_float(med)}")
    if n_failed:
        print(f"warning: {n_failed} runs failed (see summary.csv)", file=sys.stderr)
    n_gamma = sum(1 for r in mc.records if not r.failed and not r.gamma_ok)
    if n_gamma:
        print(
            f"warning: bound-validity (gamma) condition fails at t_end in "
            f"{n_gamma} of {len(mc.records) - n_failed} runs",
            file=sys.stderr,
        )
    print(f"wrote {mc_path} and {sum_path}")
    return 0


def cmd_appendix(args) -> int:
    try:
        x0 = tuple(float(v) for v in args.x0.split(","))
    except ValueError:
        raise ConfigError(f"--x0 expects 'x1,x2', got {args.x0!r}") from None
    if len(x0) != 2:
        raise ConfigError(f"--x0 expects exactly two values, got {len(x0)}")
    config = SimConfig(
        n_agents=2,
        edges=((1, 2),),
        plant="appendix",
        controller="conventional",
        learning="offline",
        predictor="oracle_biased",
        eps_bias=args.eps,
        c=args.c,
        c_bar=args.c,
        t_end=args.t_end,
        initial_states=x0,
        offline_dataset_size=0,
        seed=args.seed if args.seed is not None else 0,
        case_label="appendix",
    )
    traj, summary = run_episode(config)
    closed = np.array(
        [appendix_solution(x0, args.eps, args.c, float(t)) for t in traj.t]
    )
    sup_err = float(np.max(np.abs(traj.x - closed)))
    mean_dev = float(
        np.max(np.abs(traj.x.mean(axis=1) - (0.5 * (x0[0] + x0[1]) + args.eps * traj.t)))
    )
    print(
        f"sup |x_sim - x_closed| over [0, {fmt_float(args.t_end)}] = {fmt_float(sup_err)}"
    )
    print(f"sup |mean drift - eps_bias*t| = {fmt_float(mean_dev)}")
    if args.out:
        meta = build_meta(summary)
        path = os.path.join(args.out, "trajectory_appendix.csv")
        write_trajectory_csv(path, traj, meta)
        print(f"wrote {path}")
    return 0


def cmd_validate(args) -> int:
    config = _resolve_config(args.case, args.config, None)
    run = prepare_run(config)
    print(f"config ok (digest {run.digest})")
    print(f"beta = {fmt_float(run.bound.beta)}")
    print(f"eta_bar = {fmt_float(run.bound.eta_bar_lower)}")
    print(f"epsilon = {fmt_float(run.epsilon)}")
    print(f"lip_f = {fmt_float(run.bound.lip_f)}")
    if config.initial_states is not None:
        x_bar_star = average_state(config.initial_states)
        ok = check_domain_containment(
            run.plant.domain_lo, run.plant.domain_hi, x_bar_star, run.epsilon
        )
        print(f"x_bar_star = {fmt_float(x_bar_star)}")
        print(f"domain_ok = {fmt_bool(ok)}")
    else:
        print("x_bar_star = sampled at run time")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gpconsensus",
        description=(
            "Distributed average-consensus control with per-agent Gaussian "
            "process compensation and event-triggered online learning."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one episode and write CSVs")
    p_run.add_argument("--case", choices=CASE_IDS, help="study case preset")
    p_run.add_argument("--config", help="flat key=value scenario file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_mc = sub.add_parser("montecarlo", help="seed-swept comparison of cases")
    p_mc.add_argument("--config", help="base scenario file")
    p_mc.add_argument("--cases", default="a,b,c,d")
    p_mc.add_argument("--runs", type=int, default=20)
    p_mc.add_argument("--seed", type=int, default=None, help="base seed")
    p_mc.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_mc.add_argument("--out", default="out")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_ap = sub.add_parser("appendix", help="two-agent bias study vs closed form")
    p_ap.add_argument("--x0", default="1,0", help="initial pair 'x1,x2'")
    p_ap.add_argument("--eps", type=float, default=0.0, help="constant model bias")
    p_ap.add_argument("--c", type=float, default=1.0, help="consensus gain")
    p_ap.add_argument("--t-end", type=float, default=10.0, dest="t_end")
    p_ap.add_argument("--seed", type=int, default=None)
    p_ap.add_argument("--out", default=None)
    p_ap.set_defaults(func=cmd_appendix)

    p_val = sub.add_parser("validate", help="check a config, print derived bounds")
    p_val.add_argument("--case", choices=CASE_IDS)
    p_val.add_argument("--config")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except GpConsensusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

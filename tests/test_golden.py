"""Golden seed-0 outputs: refactors must keep every CSV byte and trigger event.

``tests/golden_seed0.json`` holds, for cases a-d at seed 0 and
``t_end = 2``, the sha256 of the trajectory and summary CSV bodies and
the ``(agent, step_index)`` list of trigger events. The ``# source = ...``
meta line is left out of the hash because ``git describe`` changes it
with every commit.

The episodes run in a child interpreter with BLAS pinned to one thread:
the offline Cholesky of cases a and c changes last bits with the BLAS
thread count, and the fixture was made with one thread.

Regenerate (only on a commit whose outputs are known good) with
``python tests/test_golden.py --write``.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "golden_seed0.json")
SRC = os.path.join(os.path.dirname(HERE), "src")
CASES = ("a", "b", "c", "d")
T_END = 2.0


def body_sha256(path: str) -> str:
    """sha256 of a CSV without its '# source = ...' meta line."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    body = b"".join(ln for ln in lines if not ln.startswith(b"# source = "))
    return hashlib.sha256(body).hexdigest()


def compute_golden() -> dict:
    from gpconsensus.engine import run_episode
    from gpconsensus.presets import case_preset
    from gpconsensus.reporting import build_meta, write_summary_csv, write_trajectory_csv

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            config = dataclasses.replace(case_preset(case), seed=0, t_end=T_END)
            traj, summary = run_episode(config)
            meta = build_meta(summary)
            traj_path = os.path.join(tmp, f"trajectory_{case}.csv")
            sum_path = os.path.join(tmp, f"summary_{case}.csv")
            write_trajectory_csv(traj_path, traj, meta)
            write_summary_csv(sum_path, [summary], config.n_agents, meta)
            out[case] = {
                "trajectory_sha256": body_sha256(traj_path),
                "summary_sha256": body_sha256(sum_path),
                "events": [[ev.agent, ev.step_index] for ev in summary.events],
            }
    return out


def run_pinned() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_seed0_outputs_match_golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = run_pinned()
    for case in CASES:
        assert got[case]["events"] == expected[case]["events"], case
        assert got[case]["trajectory_sha256"] == expected[case]["trajectory_sha256"], case
        assert got[case]["summary_sha256"] == expected[case]["summary_sha256"], case


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with open(FIXTURE, "w", encoding="utf-8") as fh:
            json.dump(run_pinned(), fh)
            fh.write("\n")
    else:
        json.dump(compute_golden(), sys.stdout)

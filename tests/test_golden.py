"""Golden seed-0 outputs: refactors must keep every CSV byte and trigger event.

``tests/golden_seed0.json`` holds, for cases a-d at seed 0 and
``t_end = 2``, the sha256 of the trajectory and summary CSV bodies and
the ``(agent, step_index)`` list of trigger events. The ``# source = ...``
meta line is left out of the hash because ``git describe`` changes it
with every commit.

The episodes run in a child interpreter that sets its own BLAS thread
count. The fixture was made with one thread, and all four cases are
checked at one thread. The offline Cholesky of cases a and c
(``np.linalg.cholesky`` in ``GpModel.from_data``) changes last bits with
the thread count. The online cases b and d factor nothing in one block:
their models grow one row at a time through ``dtrtrs`` solves on the
live factor, and their other products are small matrix-vector ones, so
a second child checks their bytes at two threads.

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
THREAD_FREE_CASES = ("b", "d")  # no batch Cholesky: bytes do not depend on BLAS threads
T_END = 2.0


def body_sha256(path: str) -> str:
    """sha256 of a CSV without its '# source = ...' meta line."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    body = b"".join(ln for ln in lines if not ln.startswith(b"# source = "))
    return hashlib.sha256(body).hexdigest()


def compute_golden(cases=CASES) -> dict:
    from gpconsensus.engine import run_episode
    from gpconsensus.presets import case_preset
    from gpconsensus.reporting import build_meta, write_summary_csv, write_trajectory_csv

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
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


def run_pinned(threads: int = 1, cases=CASES) -> dict:
    """compute_golden(cases) in a child interpreter with `threads` BLAS threads."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *cases],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def load_fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_seed0_outputs_match_golden():
    expected = load_fixture()
    got = run_pinned()
    for case in CASES:
        assert got[case]["events"] == expected[case]["events"], case
        assert got[case]["trajectory_sha256"] == expected[case]["trajectory_sha256"], case
        assert got[case]["summary_sha256"] == expected[case]["summary_sha256"], case


def test_online_cases_match_golden_at_two_blas_threads():
    expected = load_fixture()
    got = run_pinned(threads=2, cases=THREAD_FREE_CASES)
    for case in THREAD_FREE_CASES:
        assert got[case] == expected[case], case


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with open(FIXTURE, "w", encoding="utf-8") as fh:
            json.dump(run_pinned(), fh)
            fh.write("\n")
    else:
        json.dump(compute_golden(sys.argv[1:] or CASES), sys.stdout)

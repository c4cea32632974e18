"""Output check: compare captured episodes and CSVs with a stored reference.

An episode passes when it did not raise, its trigger events (agent,
step_index) equal the reference exactly, and its sampled states and
final consensus error agree within ATOL + RTOL * |reference|. CSV bodies
are hashed without the ``# source = ...`` meta line (it carries ``git
describe --dirty`` and changes with every commit); a hash mismatch is
reported but is not a failure, so a refactor may change last bits while
a changed trigger decision still fails.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os

ATOL = 1e-8
RTOL = 1e-6

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(path: str, seed: int) -> dict:
    """The stored reference of one program seed: {"episodes": ..., "csv": ...}.

    Episodes are stored once per (case, seed) key, because sweep units
    with neighbouring base seeds share most of their episodes.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        unit = data["seeds"][str(seed)]
    except KeyError:
        raise SystemExit(f"no reference for seed {seed} in {path}") from None
    return {
        "episodes": {key: data["episodes"][key] for key in unit["episodes"]},
        "csv": unit["csv"],
    }


def add_reference(path: str, workload: str, seed: int, episodes: list[dict], out_dir: str) -> None:
    """Store one unit's outputs as the reference of a program seed."""
    data = {"workload": workload, "episodes": {}, "seeds": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    for ep in episodes:
        data["episodes"][ep["key"]] = {k: ep[k] for k in ("events", "final_error", "x")}
    data["seeds"][str(seed)] = {
        "episodes": [ep["key"] for ep in episodes],
        "csv": csv_digests(out_dir),
    }
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


def csv_body_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"# source ="):
                digest.update(line)
    return digest.hexdigest()


def csv_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every CSV body under out_dir, keyed by path relative to it."""
    paths = glob.glob(os.path.join(out_dir, "**", "*.csv"), recursive=True)
    return {
        os.path.relpath(p, out_dir).replace(os.sep, "/"): csv_body_sha256(p)
        for p in sorted(paths)
    }


def _close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= ATOL + RTOL * abs(want)


def episode_problems(ref: dict | None, got: dict) -> list[str]:
    """Why a captured episode fails its reference; empty when it passes."""
    if got.get("error"):
        return [f"raised: {got['error']}"]
    if ref is None:
        return ["no reference episode"]
    problems = []
    if got["events"] != ref["events"]:
        pairs = zip(got["events"], ref["events"])
        first = next((i for i, (a, b) in enumerate(pairs) if a != b), None)
        problems.append(
            f"trigger events differ: {len(got['events'])} vs {len(ref['events'])} "
            f"reference, first difference at event {first}"
        )
    if not _close(got["final_error"], ref["final_error"]):
        problems.append(f"final_error {got['final_error']!r} vs {ref['final_error']!r}")
    if len(got["x"]) != len(ref["x"]) or not all(
        _close(g, w) for grow, wrow in zip(got["x"], ref["x"]) for g, w in zip(grow, wrow)
    ):
        problems.append("sampled states outside tolerance")
    return problems


def check_unit(reference: dict, episodes: list[dict], out_dir: str) -> tuple[int, list[str], int, int]:
    """Check one unit. Returns (failed episodes, problems, CSVs identical, CSVs).

    An episode the reference expects but the unit never produced counts
    as failed too.
    """
    problems = []
    failed = 0
    seen = set()
    for ep in episodes:
        seen.add(ep["key"])
        issues = episode_problems(reference["episodes"].get(ep["key"]), ep)
        if issues:
            failed += 1
            problems.extend(f"{ep['key']}: {msg}" for msg in issues)
    for key in sorted(set(reference["episodes"]) - seen):
        failed += 1
        problems.append(f"{key}: episode missing")
    digests = csv_digests(out_dir)
    want = reference["csv"]
    same = sum(1 for name, sha in want.items() if digests.get(name) == sha)
    return failed, problems, same, len(want)

"""Correctness gate: verify what each benchmark operation wrote.

Checks read only the output files (standard library only). Each returns how
many episodes or queries the operation attempted, how many of them failed,
the simulated steps its episode logs hold, the reasons for failures and a
SHA-256 digest of everything the operation wrote.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import FIELD_FILE, OFFLINE_GRID

PLANNERS = ("fipp", "tr")
OUTCOMES = ("reached", "timeout", "frozen")
COST_TOL = 1e-9


def tree_digest(path: str) -> str:
    """SHA-256 over every file below ``path``: relative name, then bytes."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def data_rows(path: str) -> int:
    """Non-empty, non-comment lines of a text export."""
    with open(path) as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith("#"))


def episode_log(path: str, planner: str) -> tuple[int, list[int]]:
    """Simulated steps and per-record pedestrian counts of an episode log;
    raises ValueError unless it has its meta, records and outcome lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 3:
        raise ValueError(f"{path}: {len(lines)} lines, need meta, records and outcome")
    meta = json.loads(lines[0])
    if meta.get("planner") != planner or "scenario" not in meta:
        raise ValueError(f"{path}: bad meta line")
    if json.loads(lines[-1]).get("outcome") not in OUTCOMES:
        raise ValueError(f"{path}: bad outcome line")
    peds = [len(json.loads(line)["peds"]) for line in lines[1:-1]]
    return len(peds) - 1, peds


def _result(attempted: int, failed: int, steps: int, errors: list[str], out: str) -> dict:
    return {
        "attempted": attempted,
        "failed": min(failed, attempted),
        "steps": steps,
        "errors": errors,
        "digest": tree_digest(out) if os.path.isdir(out) else None,
    }


def check_bench(op: dict, rc: int, cwd: str) -> dict:
    """report.json lists every (kind, seed, planner) episode and every
    episode log has its meta and outcome lines."""
    out = os.path.join(cwd, op["argv"][op["argv"].index("--out") + 1])
    expected = [(op["kind"], op["seed"], p) for p in PLANNERS]
    if rc != 0:
        return _result(len(expected), len(expected), 0, [f"exit {rc}"], out)
    errors, steps = [], 0
    try:
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        listed = {
            (ep["scenario_kind"], ep["seed"], planner)
            for planner, eps in report["episodes"].items() for ep in eps
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _result(len(expected), len(expected), 0, [f"report.json: {exc}"], out)
    for kind, seed, planner in expected:
        if (kind, seed, planner) not in listed:
            errors.append(f"report.json lacks {kind}-{seed}-{planner}")
            continue
        try:
            steps += episode_log(
                os.path.join(out, "episodes", f"{kind}-{seed}-{planner}.jsonl"), planner
            )[0]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors.append(str(exc))
    return _result(len(expected), len(errors), steps, errors, out)


def check_simulate(op: dict, rc: int, cwd: str) -> dict:
    """The episode log has meta and outcome lines, metrics.json exists, and
    the track log holds one row per pedestrian per recorded frame."""
    out = os.path.join(cwd, op["argv"][op["argv"].index("--out") + 1])
    if rc != 0:
        return _result(1, 1, 0, [f"exit {rc}"], out)
    try:
        steps, peds = episode_log(os.path.join(out, "episode.jsonl"), "tr")
        with open(os.path.join(out, "metrics.json")) as fh:
            json.load(fh)
        rows = data_rows(os.path.join(out, "tracks.txt"))
        if rows != sum(peds):
            raise ValueError(f"tracks.txt has {rows} rows, episode log {sum(peds)}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _result(1, 1, 0, [str(exc)], out)
    return _result(1, 0, steps, [], out)


def check_extract(op: dict, rc: int, cwd: str) -> dict:
    """field.txt covers the 80x80 grid, and every repeat of the extract
    writes the same bytes as the first."""
    out = os.path.join(cwd, op["argv"][op["argv"].index("--out") + 1])
    if rc != 0:
        return _result(1, 1, 0, [f"exit {rc}"], out)
    try:
        path = os.path.join(out, "field.txt")
        with open(path) as fh:
            head = fh.readline().split()
        if head[-2:] != [str(OFFLINE_GRID)] * 2 or data_rows(path) != OFFLINE_GRID ** 2:
            raise ValueError(f"{path}: not an {OFFLINE_GRID}x{OFFLINE_GRID} field")
        with open(path, "rb") as a, open(os.path.join(cwd, FIELD_FILE), "rb") as b:
            if a.read() != b.read():
                raise ValueError(f"{path}: differs from {FIELD_FILE}")
    except (OSError, ValueError, IndexError) as exc:
        return _result(1, 1, 0, [str(exc)], out)
    return _result(1, 0, 0, [], out)


def check_plan(op: dict, rc: int, cwd: str) -> dict:
    """C_phi = C_T + C_F to within 1e-9, and the path runs from the start
    cell to the goal cell."""
    out = os.path.join(cwd, op["argv"][op["argv"].index("--out") + 1])
    if rc != 0:
        return _result(1, 1, 0, [f"exit {rc}"], out)
    path = os.path.join(out, "plan.txt")
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        cells = [tuple(int(v) for v in line.split(",")[:2])
                 for line in lines if not line.startswith("#")]
        totals = dict(kv.split("=") for kv in lines[-1].split()[2:])
        c_t, c_f, c_phi = (float(totals[k]) for k in ("C_T", "C_F", "C_phi"))
        if not abs(c_phi - (c_t + c_f)) <= COST_TOL:
            raise ValueError(f"{path}: C_phi {c_phi!r} != C_T + C_F {c_t + c_f!r}")
        if not cells or cells[0] != tuple(op["start_cell"]) \
                or cells[-1] != tuple(op["goal_cell"]):
            raise ValueError(f"{path}: path does not run from start cell to goal cell")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return _result(1, 1, 0, [str(exc)], out)
    return _result(1, 0, 0, [], out)


CHECKS = {"bench": check_bench, "simulate": check_simulate,
          "extract": check_extract, "plan": check_plan}


def check(op: dict, rc: int, cwd: str) -> dict:
    return CHECKS[op["argv"][0]](op, rc, cwd)

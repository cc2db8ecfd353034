"""Inputs of the three benchmark workloads, derived from the workload seed.

Every operation is one ``fipp`` command line plus the facts the checks need
to verify its outputs. Only the standard library is used here, so the
launcher can read the same operation list as the worker without importing
numpy or fipp.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "tr_crowd", "offline")
BENCH_KINDS = ("chaotic", "single_flow", "double_flow", "intersection")
MAX_OPS = 20_000

# offline: a 50-pedestrian intersection crowd walked for 120 s (1201 frames,
# 60,050 observations) and extracted onto 0.25 m cells, 4x the simulator's
# 40x40 grid.
OFFLINE_PEDS = 50
OFFLINE_DURATION = 120.0
OFFLINE_CELL = 0.25
OFFLINE_GRID = 80
# The first operation extracts the field every query reads; the extract is
# repeated (to another directory) before every 80th operation, so that
# extract_rows_per_s is a median over the whole run.
OFFLINE_EXTRACT_EVERY = 80
TRACKS_FILE = "tracks.txt"
FIELD_FILE = "extract/e000/field.txt"


def trace_op_count(workload: str, seconds: float) -> int:
    """Operations of a traced run: a fixed prefix of the seed's sequence,
    sized from --seconds, so that its exact counters repeat on one seed."""
    if workload == "sweep":
        return max(4, 4 * round(seconds / 10))
    if workload == "tr_crowd":
        return max(4, round(seconds * 1.5))
    return max(12, round(seconds * 8))


def min_ops(workload: str) -> int:
    """Operations a run completes whatever its deadline: offline needs its
    extract and at least one query to report its metrics."""
    return 2 if workload == "offline" else 1


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def scenario_base(workload: str, seed: int) -> int:
    """First scenario seed of the workload's seed range."""
    return _rng(workload, seed).randrange(1, 1_000_000)


def _episodes(workload: str, seed: int, limit: int, argv) -> list[dict]:
    """One episode operation per (kind, scenario seed): the four kinds in
    turn, then the next seed of the range."""
    base = scenario_base(workload, seed)
    out = []
    for k in range(min(limit, MAX_OPS)):
        kind, scen_seed = BENCH_KINDS[k % 4], base + k // 4
        op_id = f"{workload[0]}{k:05d}"
        out.append({"id": op_id, "argv": argv(kind, scen_seed, f"ops/{op_id}"),
                    "kind": kind, "seed": scen_seed})
    return out


def ops(workload: str, seed: int, limit: int = MAX_OPS) -> list[dict]:
    """The first ``limit`` operations of the workload, in run order."""
    if workload == "sweep":
        return _episodes(workload, seed, limit, lambda kind, s, out: [
            "bench", "--kinds", kind, "--seeds", f"{s}-{s}", "--jobs", "1", "--out", out])
    if workload == "tr_crowd":
        return _episodes(workload, seed, limit, lambda kind, s, out: [
            "simulate", "--planner", "tr", "--scenario", kind, "--seed", str(s),
            "--out", out, "--tracks-out", f"{out}/tracks.txt"])
    if workload == "offline":
        rng = _rng(workload, seed)
        out, n_queries = [], 0
        while len(out) < min(limit, MAX_OPS):
            if len(out) % OFFLINE_EXTRACT_EVERY == 0:
                k = len(out) // OFFLINE_EXTRACT_EVERY
                out.append({"id": f"e{k:03d}",
                            "argv": ["extract", TRACKS_FILE, "--cell-size", str(OFFLINE_CELL),
                                     "--out", f"extract/e{k:03d}"]})
                continue
            start, goal = _cell_point(rng), _cell_point(rng)
            if abs(start[0] - goal[0]) + abs(start[1] - goal[1]) < 4:
                continue
            out.append({
                "id": f"q{n_queries:05d}",
                "argv": ["plan", FIELD_FILE, "--start", start[2], "--goal", goal[2],
                         "--out", f"queries/q{n_queries:05d}"],
                "start_cell": start[:2],
                "goal_cell": goal[:2],
            })
            n_queries += 1
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _cell_point(rng: random.Random) -> tuple[int, int, str]:
    """A point strictly inside a random cell of the offline grid (never on a
    cell border), with its cell indices and its ``X,Y`` command-line form."""
    i, j = rng.randrange(2, OFFLINE_GRID - 2), rng.randrange(2, OFFLINE_GRID - 2)
    x = (i + rng.uniform(0.1, 0.9)) * OFFLINE_CELL
    y = (j + rng.uniform(0.1, 0.9)) * OFFLINE_CELL
    return i, j, f"{x:.4f},{y:.4f}"


def offline_scenario_seed(seed: int) -> int:
    return scenario_base("offline", seed)

"""Command-line surface: extract | predict | plan | simulate | bench.

Every command resolves its parameters from built-in defaults, then an
optional JSON config file (--config), then explicit flags (flags win), and
serializes the effective configuration into the output directory alongside
the results, so any run can be reproduced from its own artifacts. Exit
codes: 0 ok, 2 input error, 3 no path, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import io as fio
from .flowfield import FlowField, FlowParams, check_advection, trajectory_deviation
from .geometry import Vec2
from .metrics import DEFAULT_THRESHOLD, check_threshold, compare, compute_report, format_table
from .planner import CostParams, NoPathError, OutOfBoundsError, plan
from .sim import (
    CELL_SIZE,
    SCENARIO_KINDS,
    WORLD,
    generate_scenario,
    grid_covering,
    run_episode,
)

BENCH_KINDS = ("chaotic", "single_flow", "double_flow", "intersection")
PLANNERS = ("fipp", "tr")

DEFAULTS = {
    "seed": 0,
    "out": "out",
    "cell_size": CELL_SIZE,
    "h": FlowParams().h,
    "xi": FlowParams().xi,
    "lambda_flow": CostParams().lambda_flow,
    "threshold": DEFAULT_THRESHOLD,
    "peds": None,
    "planner": "fipp",
    "scenario": "single_flow",
    "dt": 0.1,
    "steps": 100,
    "kinds": ",".join(BENCH_KINDS),
    "seeds": "1-20",
    "jobs": 1,
}

# The type of each key's flag; peds, the one key whose default is None,
# takes an int.
_TYPES = {key: int if value is None else type(value) for key, value in DEFAULTS.items()}


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    """Attach the shared flags; every value defaults to None so the config
    file layer can tell 'not given' from 'given'."""
    specs = {
        "config": dict(type=str, help="JSON config file; explicit flags override it"),
        "seed": dict(type=int, help="base random seed"),
        "out": dict(type=str, help="output directory"),
        "scenario": dict(type=str, choices=SCENARIO_KINDS, help="scenario kind"),
        "peds": dict(type=int, help="pedestrian count (default: seeded draw from 25-50)"),
        "lambda": dict(type=float, dest="lambda_flow", help="flow-cost weight"),
        "h": dict(type=float, help="influence radius (m)"),
        "xi": dict(type=float, help="self-propulsion coefficient (default 0.5)"),
        "cell-size": dict(type=float, dest="cell_size", help="grid cell size (m)"),
        "planner": dict(type=str, choices=PLANNERS, help="planner to run"),
        "threshold": dict(type=float, help="social violation distance (default 0.5 m)"),
    }
    for name in names:
        p.add_argument(f"--{name}", default=None, **specs[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fipp",
        description="Crowd flow-field extraction, flow-informed planning and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="build a flow field from a track log")
    p.add_argument("tracks", help="track log file (# t,id,x,y,vx,vy)")
    _add_common(p, "config", "out", "h", "xi", "cell-size")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("predict", help="advect test particles through a field")
    p.add_argument("field", help="field export file")
    p.add_argument("--start", action="append", default=None, metavar="X,Y",
                   help="start point; repeatable")
    p.add_argument("--dt", type=float, default=None, help="advection timestep (s)")
    p.add_argument("--steps", type=int, default=None, help="advection step count")
    p.add_argument("--truth", default=None,
                   help="track log to compare against (starts default to each "
                        "pedestrian's first observation)")
    _add_common(p, "config", "out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("plan", help="plan a path across a field export")
    p.add_argument("field", help="field export file")
    p.add_argument("--start", required=True, metavar="X,Y")
    p.add_argument("--goal", required=True, metavar="X,Y")
    _add_common(p, "config", "out", "lambda")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="run one crowd episode under a planner")
    _add_common(p, "config", "seed", "out", "scenario", "peds", "planner",
                "lambda", "h", "xi", "cell-size", "threshold")
    p.add_argument("--tracks-out", default=None,
                   help="also write the episode's pedestrian track log here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="run the full planner comparison sweep")
    p.add_argument("--kinds", default=None,
                   help=f"comma-separated scenario kinds (default {DEFAULTS['kinds']})")
    p.add_argument("--seeds", default=None,
                   help="seed list: N (=1..N), A-B (inclusive) or comma-separated")
    p.add_argument("--jobs", type=int, default=None, help="parallel episode workers")
    _add_common(p, "config", "out", "peds", "lambda", "h", "xi", "cell-size", "threshold")
    p.set_defaults(func=cmd_bench)

    return parser


def resolve_config(ns: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags.

    A config file may set only the keys of DEFAULTS, each to a value its
    flag would accept written out on the command line (or null where the
    default is null); anything else is an input error naming the key."""
    cfg = dict(DEFAULTS)
    path = getattr(ns, "config", None)
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise fio.InputFormatError(f"{path}: config must be a JSON object")
        for name, value in loaded.items():
            key = name.replace("-", "_")
            if key == "lambda":
                key = "lambda_flow"
            if key not in DEFAULTS:
                raise fio.InputFormatError(f"{path}: unknown config key {name!r}")
            cfg[key] = _config_value(path, name, key, value)
    for key, value in vars(ns).items():
        if key in ("config", "command", "func"):
            continue
        if value is not None:
            cfg[key] = value
    return cfg


def _config_value(path: str, name: str, key: str, value):
    """``value`` of config key ``name`` parsed as its flag would parse it
    written out on the command line."""
    if value is None and DEFAULTS[key] is None:
        return None
    kind = _TYPES[key]
    if value is not None:
        try:
            return kind(str(value))
        except ValueError:
            pass
    raise fio.InputFormatError(
        f"{path}: config key {name!r}: invalid {kind.__name__} value: {value!r}"
    )


def _outdir(cfg: dict) -> str:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out: str, command: str, cfg: dict, inputs: dict, stats: dict) -> None:
    fio.write_json(
        os.path.join(out, "manifest.json"),
        {"command": command, "config": cfg, "inputs": inputs, "stats": stats},
    )


def _parse_point(text: str) -> Vec2:
    parts = text.split(",")
    if len(parts) != 2:
        raise fio.InputFormatError(f"expected X,Y, got {text!r}")
    try:
        return Vec2(float(parts[0]), float(parts[1]))
    except ValueError:
        raise fio.InputFormatError(f"non-numeric point {text!r}") from None


def parse_seeds(text: str) -> list[int]:
    text = str(text).strip()
    try:
        if "," in text:
            return [int(s) for s in text.split(",")]
        if "-" in text[1:]:
            a, b = text.rsplit("-", 1)
            return list(range(int(a), int(b) + 1))
        return list(range(1, int(text) + 1))
    except ValueError:
        raise fio.InputFormatError(
            f"seeds must be N, A-B or a comma-separated list of integers, got {text!r}"
        ) from None


def _flow_params(cfg: dict) -> FlowParams:
    return FlowParams(xi=cfg["xi"], h=cfg["h"])


def _check_config(cfg: dict) -> None:
    """Reject a configured value no command runs with before any input is
    read or output written: build the flow and cost parameters and the
    grid, and check scenario, planner, peds, threshold, dt, steps and jobs."""
    _flow_params(cfg)
    CostParams(lambda_flow=cfg["lambda_flow"])
    grid_covering(WORLD, cfg["cell_size"])
    if cfg["scenario"] not in SCENARIO_KINDS:
        raise fio.InputFormatError(f"scenario: unknown scenario kind {cfg['scenario']!r}")
    if cfg["planner"] not in PLANNERS:
        raise fio.InputFormatError(f"planner must be one of {PLANNERS}, got {cfg['planner']!r}")
    if cfg["peds"] is not None and cfg["peds"] < 1:
        raise ValueError(f"peds must be at least 1, got {cfg['peds']}")
    check_threshold(cfg["threshold"])
    check_advection(cfg["dt"], cfg["steps"])
    if cfg["jobs"] < 1:
        raise ValueError(f"jobs must be at least 1, got {cfg['jobs']}")


def cmd_extract(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    _check_config(cfg)
    out = _outdir(cfg)
    frames = fio.read_track_log(ns.tracks)
    field = FlowField(grid_covering(WORLD, cfg["cell_size"]))
    params = _flow_params(cfg)
    for frame in frames:
        field.deposit_frame(frame, params)
    field.update_field(params)
    field_path = os.path.join(out, "field.txt")
    fio.write_field(field_path, field)
    _write_manifest(
        out, "extract", cfg,
        inputs={"tracks": ns.tracks},
        stats={"frames": len(frames), "dropped_observations": field.dropped_total},
    )
    print(f"extracted {len(frames)} frames -> {field_path}")
    return 0


def cmd_predict(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    _check_config(cfg)
    if ns.truth is None and not ns.start:
        raise fio.InputFormatError("predict needs --start points or --truth")
    starts = [_parse_point(text) for text in ns.start or ()]
    out = _outdir(cfg)
    field = fio.read_field(ns.field)
    dt = cfg["dt"]
    stats: dict = {}

    tracks: dict[int, list[Vec2]] = {}
    if ns.truth is not None:
        for frame in fio.read_track_log(ns.truth):
            for ped_id, (x, y, _, _) in zip(frame.ids.tolist(), frame.state.tolist()):
                tracks.setdefault(ped_id, []).append(Vec2(x, y))

    trajectories: list[tuple[str, list[Vec2]]] = []
    deviations: dict[str, float] = {}
    if ns.start is None:
        # --truth alone: every pedestrian starts from its first observation.
        for ped_id in sorted(tracks):
            track = tracks[ped_id]
            pred = field.advect(track[0], dt, len(track) - 1)
            trajectories.append((str(ped_id), pred))
            if len(track) > 1:
                deviations[str(ped_id)] = trajectory_deviation(pred, track)
    else:
        for k, start in enumerate(starts):
            trajectories.append((str(k), field.advect(start, dt, cfg["steps"])))
    if deviations:
        mean_dev = sum(deviations.values()) / len(deviations)
        stats["mean_deviation"] = mean_dev
        fio.write_json(
            os.path.join(out, "deviation.json"),
            {"per_pedestrian": deviations, "mean": mean_dev},
        )
        print(f"mean trajectory deviation: {mean_dev:.4f} m over {len(deviations)} tracks")

    traj_path = os.path.join(out, "trajectories.csv")
    with open(traj_path, "w", newline="\n") as fh:
        fh.write("# traj_id,k,x,y\n")
        for traj_id, points in trajectories:
            for k, p in enumerate(points):
                fh.write(f"{traj_id},{k},{p.x!r},{p.y!r}\n")
    stats["trajectories"] = len(trajectories)
    _write_manifest(out, "predict", cfg,
                    inputs={"field": ns.field, "truth": ns.truth}, stats=stats)
    return 0


def cmd_plan(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    _check_config(cfg)
    start, goal = _parse_point(ns.start), _parse_point(ns.goal)
    out = _outdir(cfg)
    field = fio.read_field(ns.field)
    params = CostParams(lambda_flow=cfg["lambda_flow"])
    result = plan(field, start, goal, params)
    plan_path = os.path.join(out, "plan.txt")
    fio.write_plan(plan_path, result, field)
    _write_manifest(
        out, "plan", cfg,
        inputs={"field": ns.field, "start": ns.start, "goal": ns.goal},
        stats={"cells": len(result.path), "expanded": result.expanded},
    )
    print(
        f"C_T={result.cost_T!r} C_F={result.cost_F!r} "
        f"C_phi={result.cost_total!r} expanded={result.expanded}"
    )
    return 0


def _run_configured_episode(scenario, planner: str, cfg: dict):
    """One episode of ``planner`` at the flow, cost and grid settings of ``cfg``."""
    return run_episode(
        scenario,
        planner,
        flow_params=_flow_params(cfg),
        cost_params=CostParams(lambda_flow=cfg["lambda_flow"]),
        cell_size=cfg["cell_size"],
    )


def cmd_simulate(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    _check_config(cfg)
    out = _outdir(cfg)
    scenario = generate_scenario(cfg["scenario"], cfg["peds"], cfg["seed"])
    log = _run_configured_episode(scenario, cfg["planner"], cfg)
    fio.write_json(os.path.join(out, "scenario.json"), scenario.to_dict())
    fio.write_episode_jsonl(os.path.join(out, "episode.jsonl"), log)
    report = compute_report(log, cfg["threshold"])
    fio.write_json(os.path.join(out, "metrics.json"), report.to_dict())
    if ns.tracks_out:
        fio.write_track_log(ns.tracks_out, [rec.peds for rec in log.records])
    _write_manifest(
        out, "simulate", cfg,
        inputs={}, stats={"outcome": log.outcome, "steps": len(log.records) - 1},
    )
    print(
        f"{scenario.kind} seed={scenario.seed} planner={log.planner}: {log.outcome}, "
        f"violations={report.violation_events} events/{report.violations_steps} steps, "
        f"time={report.time_to_goal:.1f}s path={report.path_length:.2f}m"
    )
    return 0


def _bench_episode(task: tuple) -> dict:
    """One (kind, seed, planner) episode; separate function so bench can fan
    out to worker processes."""
    kind, seed, planner, cfg, episodes_dir = task
    scenario = generate_scenario(kind, cfg["peds"], seed)
    try:
        log = _run_configured_episode(scenario, planner, cfg)
        fio.write_episode_jsonl(
            os.path.join(episodes_dir, f"{kind}-{seed}-{planner}.jsonl"), log
        )
        report = compute_report(log, cfg["threshold"])
        return {"ok": True, "report": report, "error": log.error}
    except Exception as exc:  # recorded, never aborts the sweep
        return {
            "ok": False,
            "kind": kind,
            "seed": seed,
            "planner": planner,
            "error": f"{type(exc).__name__}: {exc}",
        }


def cmd_bench(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    # Every input is checked before anything is written.
    kinds = [k.strip() for k in str(cfg["kinds"]).split(",") if k.strip()]
    if not kinds:
        raise fio.InputFormatError("kinds must name at least one scenario kind")
    for kind in kinds:
        if kind not in SCENARIO_KINDS:
            raise fio.InputFormatError(f"kinds: unknown scenario kind {kind!r}")
    seeds = parse_seeds(cfg["seeds"])
    if not seeds:
        raise fio.InputFormatError(f"seeds must name at least one seed, got {cfg['seeds']!r}")
    _check_config(cfg)
    jobs = cfg["jobs"]
    out = _outdir(cfg)
    episodes_dir = os.path.join(out, "episodes")
    os.makedirs(episodes_dir, exist_ok=True)

    tasks = [
        (kind, seed, planner, cfg, episodes_dir)
        for kind in kinds
        for seed in seeds
        for planner in PLANNERS
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_bench_episode, tasks, chunksize=1))
    else:
        results = [_bench_episode(task) for task in tasks]

    report_sets: dict[str, list] = {planner: [] for planner in PLANNERS}
    failures = []
    for task, result in zip(tasks, results):
        if result["ok"]:
            report_sets[task[2]].append(result["report"])
            if result["error"]:
                failures.append(
                    {"kind": task[0], "seed": task[1], "planner": task[2],
                     "error": result["error"], "recovered": True}
                )
        else:
            failures.append({k: result[k] for k in ("kind", "seed", "planner", "error")})

    # A failed episode leaves a hole in one planner's set; compare only the
    # (kind, seed) pairs both planners completed.
    matched = set.intersection(
        *(
            {(r.scenario_kind, r.seed) for r in reports}
            for reports in report_sets.values()
        )
    )
    stats = {"episodes": len(tasks), "failures": len(failures)}
    inputs = {"kinds": kinds, "seeds": seeds}
    if not matched:
        # Nothing to compare: keep what ran, and say which planner ran nothing.
        report_path = os.path.join(out, "report.json")
        fio.write_json(report_path, {
            "episodes": {
                planner: [r.to_dict() for r in reports]
                for planner, reports in report_sets.items()
            },
            "failures": failures,
        })
        _write_manifest(out, "bench", cfg, inputs=inputs, stats=stats)
        idle = [planner for planner, reports in report_sets.items() if not reports]
        reason = (
            f"planner {', '.join(idle)} completed no episode" if idle
            else "no scenario was completed by both planners"
        )
        print(f"error: {reason}; the failures are in {report_path}", file=sys.stderr)
        return 2
    report_sets = {
        planner: [r for r in reports if (r.scenario_kind, r.seed) in matched]
        for planner, reports in report_sets.items()
    }
    summary = compare(report_sets)
    summary["failures"] = failures
    summary["episodes"] = {
        planner: [r.to_dict() for r in reports] for planner, reports in report_sets.items()
    }
    fio.write_json(os.path.join(out, "report.json"), summary)
    table = format_table(summary)
    with open(os.path.join(out, "report.txt"), "w", newline="\n") as fh:
        fh.write(table + "\n")
    _write_manifest(out, "bench", cfg, inputs=inputs, stats=stats)
    print(table)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (fio.InputFormatError, FileNotFoundError, OutOfBoundsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: extract | predict | plan | simulate | bench.

Every command resolves its parameters from built-in defaults, then an
optional JSON config file (--config), then explicit flags (flags win), and
serializes the effective configuration into the output directory alongside
the results, so any run can be reproduced from its own artifacts. Exit
codes: 0 ok, 2 input error, 3 no path, 4 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import shutil
import sys
import tempfile
from typing import NamedTuple

import numpy as np

from . import io as fio
from .flowfield import (
    FlowField, FlowParams, GridSpec, check_advection, trajectory_deviation,
)
from .geometry import Vec2, left_sum
from .metrics import DEFAULT_THRESHOLD, check_threshold, compare, compute_report, format_table
from .planner import CostParams, NoPathError, plan, step_costs
from .sim import (
    BENCH_KINDS, CELL_SIZE, N_PEDS_RANGE, PLANNERS, SCENARIO_KINDS, check_planner,
    generate_scenario, grid_covering, run_episode,
)


class Setting(NamedTuple):
    flag: str
    type: type
    default: object
    help: str
    choices: tuple | None = None


# Every value a command resolves, by its config key. A config file may
# name a setting by its key, by the key with '-' for '_', or by its flag.
SETTINGS = {
    "seed": Setting("seed", int, 0, "base random seed"),
    "out": Setting("out", str, "out", "output directory"),
    "cell_size": Setting("cell-size", float, CELL_SIZE, "grid cell size (m)"),
    "h": Setting("h", float, FlowParams().h, "influence radius (m)"),
    "xi": Setting("xi", float, FlowParams().xi,
                  f"self-propulsion coefficient (default {FlowParams().xi})"),
    "lambda_flow": Setting("lambda", float, CostParams().lambda_flow, "flow-cost weight"),
    "threshold": Setting("threshold", float, DEFAULT_THRESHOLD,
                         f"social violation distance (default {DEFAULT_THRESHOLD} m)"),
    "peds": Setting("peds", int, None,
                    "pedestrian count (default: seeded draw from {}-{})".format(*N_PEDS_RANGE)),
    "planner": Setting("planner", str, "fipp", "planner to run", PLANNERS),
    "scenario": Setting("scenario", str, "single_flow", "scenario kind", SCENARIO_KINDS),
    "dt": Setting("dt", float, 0.1, "advection timestep (s)"),
    "steps": Setting("steps", int, 100, "advection step count"),
    "kinds": Setting(
        "kinds", str, ",".join(BENCH_KINDS),
        f"comma-separated scenario kinds (default {','.join(BENCH_KINDS)})",
    ),
    "seeds": Setting(
        "seeds", str, "1-20", "seed list: N (=1..N), A-B (inclusive) or comma-separated"
    ),
    "jobs": Setting("jobs", int, 1, "parallel episode workers"),
}
DEFAULTS = {key: setting.default for key, setting in SETTINGS.items()}
STAGE_PREFIX = ".fipp-stage-"  # of the hidden directories output is staged in


def _add_settings(p: argparse.ArgumentParser, *keys: str) -> None:
    """Add --config and the flags of the settings ``keys``; every flag
    defaults to None so the config file layer can tell 'not given' from
    'given'."""
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    for key in keys:
        s = SETTINGS[key]
        p.add_argument(f"--{s.flag}", dest=key, type=s.type, choices=s.choices, help=s.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fipp",
        description="Crowd flow-field extraction, flow-informed planning and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="build a flow field from a track log")
    p.add_argument("tracks", help="track log file (# t,id,x,y,vx,vy)")
    _add_settings(p, "out", "h", "xi", "cell_size")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("predict", help="advect test particles through a field")
    p.add_argument("field", help="field export file")
    p.add_argument("--start", action="append", default=None, metavar="X,Y",
                   help="start point; repeatable")
    p.add_argument("--truth", default=None,
                   help="track log to compare against, instead of --start: each "
                        "pedestrian starts from its first observation")
    _add_settings(p, "out", "dt", "steps")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("plan", help="plan a path across a field export")
    p.add_argument("field", help="field export file")
    p.add_argument("--start", required=True, metavar="X,Y")
    p.add_argument("--goal", required=True, metavar="X,Y")
    _add_settings(p, "out", "lambda_flow")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="run one crowd episode under a planner")
    _add_settings(p, "seed", "out", "scenario", "peds", "planner",
                  "lambda_flow", "h", "xi", "cell_size", "threshold")
    p.add_argument("--tracks-out", default=None,
                   help="also write the episode's pedestrian track log here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="run the full planner comparison sweep")
    _add_settings(p, "out", "peds", "lambda_flow", "h", "xi", "cell_size", "threshold",
                  "kinds", "seeds", "jobs")
    p.set_defaults(func=cmd_bench)

    return parser


def resolve_config(ns: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags.

    A config file may set only the keys of SETTINGS, each to a value its
    flag would accept written out on the command line (or null where the
    default is null); anything else, or a file that cannot be read as a
    JSON object, is an input error naming the file."""
    cfg = dict(DEFAULTS)
    path = getattr(ns, "config", None)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise fio.InputFormatError(f"{path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise fio.InputFormatError(f"{path}: config must be a JSON object")
        keys = {
            name: key
            for key, s in SETTINGS.items()
            for name in (key, key.replace("_", "-"), s.flag)
        }
        for name, value in loaded.items():
            if name not in keys:
                raise fio.InputFormatError(f"{path}: unknown config key {name!r}")
            cfg[keys[name]] = _config_value(path, name, SETTINGS[keys[name]], value)
    for key in SETTINGS:
        value = getattr(ns, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _config_value(path: str, name: str, setting: Setting, value):
    """``value`` of config key ``name`` parsed as the flag of ``setting``
    would parse it written out on the command line."""
    if value is None and setting.default is None:
        return None
    if value is not None:
        try:
            return setting.type(str(value))
        except ValueError:
            pass
    raise fio.InputFormatError(
        f"{path}: config key {name!r}: invalid {setting.type.__name__} value: {value!r}"
    )


@contextlib.contextmanager
def _staged(out: str, tracks_out: str | None = None):
    """The one output rule. Make ``out``, then yield ``(stage, tracks)``:
    the directory that takes each output file at its path relative to
    ``out``, and where to write ``tracks_out`` (None without one). An
    ``out`` made here is its own stage, so each file is written where it
    stays (removing ``out`` undoes the command); one that exists gets a
    fresh hidden stage, and a ``tracks_out`` outside ``out`` gets one beside
    it. A normal exit moves every staged file to its target, once no target
    is a directory; an exception moves none, and removes the stages and
    what was made here."""
    made, path = None, os.path.abspath(out)
    while not os.path.lexists(path):  # made: the outermost directory made here
        made, path = path, os.path.dirname(path)
    os.makedirs(out, exist_ok=True)
    stage, stages = out, {}  # stages: each hidden stage and its target directory
    if not made:
        stage = tempfile.mkdtemp(prefix=STAGE_PREFIX, dir=out)
        stages[stage] = out
    try:
        tracks = None
        if tracks_out:
            _check_file_target(tracks_out)
            staging, rel = stage, os.path.relpath(tracks_out, out)
            if rel.startswith(os.pardir + os.sep):  # outside out: a stage beside it
                home, rel = os.path.split(tracks_out)
                home = home or os.curdir
                try:
                    staging = tempfile.mkdtemp(prefix=STAGE_PREFIX, dir=home)
                except OSError as exc:  # name the path asked for, not the stage
                    raise type(exc)(exc.errno, exc.strerror, tracks_out) from None
                stages[staging] = home
            tracks = os.path.join(staging, rel)
            os.makedirs(os.path.dirname(tracks), exist_ok=True)
        yield stage, tracks
        moves = [
            (staged, os.path.join(target, os.path.relpath(staged, staging)))
            for staging, target in stages.items()
            for root, _, names in os.walk(staging)
            for staged in (os.path.join(root, name) for name in names)
        ]
        for _, path in moves:
            _check_file_target(path)
        for path in {os.path.dirname(path) for _, path in moves}:
            os.makedirs(path, exist_ok=True)
        for staged, path in moves:
            os.replace(staged, path)
        made = None
    finally:
        for path in filter(None, (*stages, made)):
            shutil.rmtree(path, ignore_errors=True)


def _check_file_target(path: str) -> None:
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _write_manifest(out: str, command: str, cfg: dict, inputs: dict, stats: dict) -> None:
    fio.write_json(
        os.path.join(out, "manifest.json"),
        {"command": command, "config": cfg, "inputs": inputs, "stats": stats},
    )


def _parse_point(text: str) -> Vec2:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected X,Y, got {text!r}")
    try:
        x, y = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"non-numeric point {text!r}") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite point {text!r}")
    return Vec2(x, y)


def parse_seeds(text: str) -> list[int]:
    text = str(text).strip()
    try:
        if "," in text:
            seeds = [int(s) for s in text.split(",")]
        elif "-" in text[1:]:
            a, b = text.rsplit("-", 1)
            seeds = list(range(int(a), int(b) + 1))
        else:
            seeds = list(range(1, int(text) + 1))
    except ValueError:
        raise ValueError(
            f"seeds must be N, A-B or a comma-separated list of integers, got {text!r}"
        ) from None
    if seeds and min(seeds) < 0:
        raise ValueError(f"seeds must be nonnegative, got {text!r}")
    return seeds


def _check_config(cfg: dict) -> tuple[FlowParams, CostParams, GridSpec]:
    """Reject a configured value no command runs with before any input is
    read or output written: build the flow and cost parameters and the
    grid, and check the grid's step costs, seed, scenario, planner, peds,
    threshold, dt, steps and jobs. Returns the parameters and the grid."""
    flow_params = FlowParams(xi=cfg["xi"], h=cfg["h"])
    cost_params = CostParams(lambda_flow=cfg["lambda_flow"])
    grid = grid_covering(cfg["cell_size"])
    step_costs(grid.cell_size)  # the planner's steps must stay finite
    if cfg["seed"] < 0:
        raise ValueError(f"seed must be nonnegative, got {cfg['seed']}")
    if cfg["scenario"] not in SCENARIO_KINDS:
        raise ValueError(f"scenario: unknown scenario kind {cfg['scenario']!r}")
    check_planner(cfg["planner"])
    if cfg["peds"] is not None and cfg["peds"] < 1:
        raise ValueError(f"peds must be at least 1, got {cfg['peds']}")
    check_threshold(cfg["threshold"])
    check_advection(cfg["dt"], cfg["steps"])
    if cfg["jobs"] < 1:
        raise ValueError(f"jobs must be at least 1, got {cfg['jobs']}")
    return flow_params, cost_params, grid


def cmd_extract(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    flow_params, _, grid = _check_config(cfg)
    with _staged(cfg["out"]) as (stage, _):
        log = fio.read_track_log(ns.tracks)
        field = FlowField(grid)
        field.deposit_frame(log)
        field.update_field(flow_params)
        # A magnitude that overflows is written to the stage, which an
        # error leaves unpublished.
        mag = fio.write_field(os.path.join(stage, "field.txt"), field)
        if not np.isfinite(mag).all():
            j, i = np.argwhere(~np.isfinite(mag))[0].tolist()
            raise ValueError(
                f"xi: the force magnitude at cell ({i}, {j}) overflows with --xi {cfg['xi']}"
            )
        # The force scale follows the last frame alone (README, "Model
        # choices"), so the manifest shows that frame's speed beside it.
        _write_manifest(
            stage, "extract", cfg,
            inputs={"tracks": ns.tracks},
            stats={
                "frames": log.t.size,
                "dropped_observations": field.dropped_total,
                "frame_avg_speed": field.frame_avg_speed,
                "force_max": float(mag.max()),
                "force_p90": float(np.percentile(mag, 90)),
            },
        )
    print(f"extracted {log.t.size} frames -> {os.path.join(cfg['out'], 'field.txt')}")
    return 0


def cmd_predict(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    _check_config(cfg)
    if ns.truth is None and not ns.start:
        raise ValueError("predict needs --start points or --truth")
    if ns.truth is not None and ns.start is not None:
        raise ValueError("predict takes --start points or --truth, not both")
    starts = [_parse_point(text) for text in ns.start or ()]
    with _staged(cfg["out"]) as (stage, _):
        field = fio.read_field(ns.field)
        trajectories = {
            str(k): field.advect(start, cfg["dt"], cfg["steps"]) for k, start in enumerate(starts)
        }
        deviations: dict[str, float] = {}
        if ns.truth is not None:
            # Each pedestrian's positions in time order (a stable sort by id
            # keeps the log's row order); it starts from its first one.
            log = fio.read_track_log(ns.truth)
            order = np.argsort(log.ids, kind="stable")
            ids, xy = log.ids[order], log.state[order, :2]
            first = np.ones(ids.size, dtype=bool)
            first[1:] = ids[1:] != ids[:-1]
            firsts = np.flatnonzero(first)
            for ped_id, track in zip(ids[firsts].tolist(), np.split(xy, firsts[1:])):
                pred = field.advect(Vec2(*track[0].tolist()), cfg["dt"], len(track) - 1)
                trajectories[str(ped_id)] = pred
                if len(track) > 1:
                    deviation = trajectory_deviation(pred, track)
                    if not math.isfinite(deviation):
                        raise ValueError(
                            f"pedestrian {ped_id} of {ns.truth}: its deviation from the track "
                            f"predicted on {ns.field} with dt {cfg['dt']!r} is not finite"
                        )
                    deviations[str(ped_id)] = deviation
        stats = {"trajectories": len(trajectories)}
        if deviations:
            stats["mean_deviation"] = mean_dev = left_sum(deviations.values()) / len(deviations)
            fio.write_json(
                os.path.join(stage, "deviation.json"),
                {"per_pedestrian": deviations, "mean": mean_dev},
            )
        with open(os.path.join(stage, "trajectories.csv"), "w", newline="\n") as fh:
            fh.write("# traj_id,k,x,y\n")
            for traj_id, points in trajectories.items():
                for k, p in enumerate(points):
                    fh.write(f"{traj_id},{k},{p.x!r},{p.y!r}\n")
        _write_manifest(stage, "predict", cfg,
                        inputs={"field": ns.field, "start": ns.start, "truth": ns.truth},
                        stats=stats)
    if deviations:
        print(f"mean trajectory deviation: {mean_dev:.4f} m over {len(deviations)} tracks")
    return 0


def cmd_plan(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    _, cost_params, _ = _check_config(cfg)
    start, goal = _parse_point(ns.start), _parse_point(ns.goal)
    with _staged(cfg["out"]) as (stage, _):
        result = plan(fio.read_field(ns.field), start, goal, cost_params)
        fio.write_plan(os.path.join(stage, "plan.txt"), result)
        _write_manifest(
            stage, "plan", cfg,
            inputs={"field": ns.field, "start": ns.start, "goal": ns.goal},
            stats={"cells": len(result.path), "expanded": result.expanded},
        )
    print(
        f"C_T={result.cost_T!r} C_F={result.cost_F!r} "
        f"C_phi={result.cost_total!r} expanded={result.expanded}"
    )
    return 0


def cmd_simulate(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    flow_params, cost_params, _ = _check_config(cfg)
    if ns.tracks_out == "":
        raise ValueError("--tracks-out '' names no file")
    # The track log may be neither one of the files written below nor inside one.
    for name in ("episode.jsonl", "scenario.json", "metrics.json", "manifest.json"):
        own = os.path.realpath(os.path.join(cfg["out"], name))
        if ns.tracks_out and own == os.path.commonpath([own, os.path.realpath(ns.tracks_out)]):
            raise ValueError(f"--tracks-out {ns.tracks_out}: simulate writes its {name} there")
    with _staged(cfg["out"], ns.tracks_out) as (stage, tracks):
        scenario, log, report = _episode(
            cfg["scenario"], cfg["seed"], cfg["planner"], cfg, flow_params, cost_params,
            os.path.join(stage, "episode.jsonl"), tracks,
        )
        fio.write_json(os.path.join(stage, "scenario.json"), scenario.to_dict())
        fio.write_json(os.path.join(stage, "metrics.json"), report.to_dict())
        _write_manifest(
            stage, "simulate", cfg,
            inputs={"tracks_out": ns.tracks_out},
            stats={"outcome": log.outcome, "steps": log.crowd.t.size - 1},
        )
    if log.error is not None:
        print(f"recovered planner error: {log.error}", file=sys.stderr)
    print(
        f"{scenario.kind} seed={scenario.seed} planner={log.planner}: {log.outcome}, "
        f"violations={report.violation_events} events/{report.violations_steps} steps, "
        f"time={report.time_to_goal:.1f}s path={report.path_length:.2f}m"
    )
    return 0


def _episode(kind, seed, planner, cfg, flow_params, cost_params, path, tracks=None) -> tuple:
    """Run one episode, write its log to ``path`` (and its crowd's track
    log to ``tracks``), and return its scenario, log and report."""
    scenario = generate_scenario(kind, cfg["peds"], seed)
    log = run_episode(
        scenario, planner, flow_params=flow_params, cost_params=cost_params,
        cell_size=cfg["cell_size"],
    )
    fio.write_episode_jsonl(path, log, tracks)
    return scenario, log, compute_report(log, cfg["threshold"])


def _bench_episode(task: tuple) -> tuple:
    """One ``_episode`` as ``(report, error)``: the report is None when the
    episode failed, the error None when nothing went wrong. A separate
    function so bench can fan out to worker processes."""
    try:
        _, log, report = _episode(*task)
        return report, log.error
    except Exception as exc:  # recorded, never aborts the sweep
        return None, f"{type(exc).__name__}: {exc}"


def cmd_bench(ns: argparse.Namespace) -> int:
    """Run both planners on every (kind, seed), and report ``compare``'s
    paired summary with the failures. Exit 2, keeping what ran, when no pair
    was completed by both planners."""
    cfg = resolve_config(ns)
    # Every input is checked before --out is made.
    kinds = [k.strip() for k in str(cfg["kinds"]).split(",") if k.strip()]
    if not kinds:
        raise ValueError("kinds must name at least one scenario kind")
    for kind in kinds:
        if kind not in SCENARIO_KINDS:
            raise ValueError(f"kinds: unknown scenario kind {kind!r}")
    seeds = parse_seeds(cfg["seeds"])
    if not seeds:
        raise ValueError(f"seeds must name at least one seed, got {cfg['seeds']!r}")
    flow_params, cost_params, _ = _check_config(cfg)
    with _staged(cfg["out"]) as (stage, _):
        os.mkdir(os.path.join(stage, "episodes"))
        tasks = [
            (kind, seed, planner, cfg, flow_params, cost_params,
             os.path.join(stage, "episodes", f"{kind}-{seed}-{planner}.jsonl"))
            for kind in kinds
            for seed in seeds
            for planner in PLANNERS
        ]
        if cfg["jobs"] > 1:
            # Imported here, so no other command pays its import (about 10 ms).
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=cfg["jobs"]) as pool:
                results = list(pool.map(_bench_episode, tasks, chunksize=1))
        else:
            results = [_bench_episode(task) for task in tasks]

        report_sets: dict[str, list] = {planner: [] for planner in PLANNERS}
        failures = []
        for (kind, seed, planner, *_), (report, error) in zip(tasks, results):
            if report is not None:
                report_sets[planner].append(report)
            if error is not None:
                failure = {"kind": kind, "seed": seed, "planner": planner, "error": error}
                if report is not None:
                    failure["recovered"] = True
                failures.append(failure)

        summary = compare(report_sets)
        summary["failures"] = failures
        fio.write_json(os.path.join(stage, "report.json"), summary)
        _write_manifest(
            stage, "bench", cfg,
            inputs={},
            stats={"episodes": len(tasks), "failures": len(failures)},
        )
        compared = "planners" in summary
        if compared:
            table = format_table(summary)
            with open(os.path.join(stage, "report.txt"), "w", newline="\n") as fh:
                fh.write(table + "\n")
    if not compared:
        # Nothing to compare: keep what ran, and say which planner ran nothing.
        idle = [planner for planner, reports in report_sets.items() if not reports]
        reason = (
            f"planner {', '.join(idle)} completed no episode" if idle
            else "no scenario was completed by both planners"
        )
        report_path = os.path.join(cfg["out"], "report.json")
        print(f"error: {reason}; the failures are in {report_path}", file=sys.stderr)
        return 2
    print(table)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # A path that cannot be read or written is an input error naming it.
        if isinstance(exc, OSError) and exc.filename is not None:
            print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
            return 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

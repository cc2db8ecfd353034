"""File formats: track logs, field exports, plan exports, episode logs.

All writers emit '\n' newlines and repr-formatted floats so outputs are
byte-identical across runs and round-trip losslessly through the readers.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np

from .flowfield import V_PED_MAX, FlowField, GridSpec, TrackFrame
from .geometry import Vec2

TRACK_HEADER = "# t,id,x,y,vx,vy"
FIELD_HEADER = "# i,j,cx,cy,fx,fy,mag"


class InputFormatError(ValueError):
    """Malformed input file; message carries the offending line number."""


def _fmt(x: float) -> str:
    return repr(float(x))


def write_track_log(path: str, frames: Iterable[TrackFrame]) -> None:
    """One row per observation, rows sorted by time."""
    with open(path, "w", newline="\n") as fh:
        fh.write(TRACK_HEADER + "\n")
        for frame in frames:
            t = _fmt(frame.t)
            for ped_id, (x, y, vx, vy) in zip(frame.ids.tolist(), frame.state.tolist()):
                fh.write(f"{t},{ped_id},{x!r},{y!r},{vx!r},{vy!r}\n")


def read_track_log(path: str) -> list[TrackFrame]:
    """Parse a track log into frames grouped by timestamp.

    Raises InputFormatError (with the line number) on rows that do not
    split into t,id,x,y,vx,vy, on non-numeric or non-finite fields, on
    velocities past the pedestrian speed cap, on an id repeated within one
    timestamp, or when timestamps go backwards.
    """
    frames: list[TrackFrame] = []
    current_t: float | None = None
    current_rows: list[tuple] = []
    current_ids: set[int] = set()

    def flush() -> None:
        if current_t is not None:
            frames.append(TrackFrame.from_rows(current_t, current_rows))

    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise InputFormatError(
                    f"{path}:{line_no}: expected 6 fields t,id,x,y,vx,vy, got {len(parts)}"
                )
            try:
                t = float(parts[0])
                ped_id = int(parts[1])
                x, y, vx, vy = (float(p) for p in parts[2:])
            except ValueError as exc:
                raise InputFormatError(f"{path}:{line_no}: {exc}") from None
            if not (
                math.isfinite(t) and math.isfinite(x) and math.isfinite(y)
                and math.isfinite(vx) and math.isfinite(vy)
            ):
                raise InputFormatError(f"{path}:{line_no}: non-finite number in {line!r}")
            if math.hypot(vx, vy) > V_PED_MAX:
                raise InputFormatError(
                    f"{path}:{line_no}: velocity {math.hypot(vx, vy):.3f} m/s exceeds "
                    f"the {V_PED_MAX} m/s pedestrian cap"
                )
            if current_t is not None and t < current_t:
                raise InputFormatError(
                    f"{path}:{line_no}: timestamps must be non-decreasing "
                    f"({t} after {current_t})"
                )
            if current_t is None or t != current_t:
                flush()
                current_t = t
                current_rows = []
                current_ids = set()
            if ped_id in current_ids:
                raise InputFormatError(
                    f"{path}:{line_no}: pedestrian id {ped_id} repeated at t={t!r}"
                )
            current_ids.add(ped_id)
            current_rows.append((ped_id, x, y, vx, vy))
    flush()
    return frames


def write_field(path: str, field: FlowField) -> None:
    """One row per cell with its force vector; a meta line records the grid."""
    spec = field.spec
    with open(path, "w", newline="\n") as fh:
        fh.write(
            f"# grid {_fmt(spec.origin.x)} {_fmt(spec.origin.y)} "
            f"{_fmt(spec.cell_size)} {spec.width} {spec.height}\n"
        )
        fh.write(FIELD_HEADER + "\n")
        for j in range(spec.height):
            for i in range(spec.width):
                c = spec.cell_center(i, j)
                fx = float(field.force[j, i, 0])
                fy = float(field.force[j, i, 1])
                mag = Vec2(fx, fy).magnitude()
                fh.write(
                    f"{i},{j},{_fmt(c.x)},{_fmt(c.y)},{_fmt(fx)},{_fmt(fy)},{_fmt(mag)}\n"
                )


def read_field(path: str) -> FlowField:
    """Rebuild a FlowField (forces only) from a field export. Raises
    InputFormatError (with the line number) on malformed lines, cells
    outside the grid, non-finite forces and cells listed twice, and (naming
    the first one) on cells the export leaves out."""
    spec: GridSpec | None = None
    field: FlowField | None = None
    seen = None
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                if not line.startswith("# grid"):
                    continue
                parts = line.split()
                if len(parts) != 7:
                    raise InputFormatError(f"{path}:{line_no}: malformed grid meta line")
                try:
                    ox, oy, cs = float(parts[2]), float(parts[3]), float(parts[4])
                    w, h = int(parts[5]), int(parts[6])
                    spec = GridSpec(Vec2(ox, oy), cs, w, h)
                except ValueError as exc:
                    raise InputFormatError(f"{path}:{line_no}: {exc}") from None
                field = FlowField(spec)
                seen = bytearray(w * h)  # 1 at the flat index of each cell read
                forces = [0.0] * (2 * w * h)
                continue
            if field is None:
                raise InputFormatError(f"{path}:{line_no}: data row before grid meta line")
            parts = line.split(",")
            if len(parts) != 7:
                raise InputFormatError(
                    f"{path}:{line_no}: expected 7 fields i,j,cx,cy,fx,fy,mag"
                )
            try:
                i, j = int(parts[0]), int(parts[1])
                fx, fy = float(parts[4]), float(parts[5])
            except ValueError as exc:
                raise InputFormatError(f"{path}:{line_no}: {exc}") from None
            if not (math.isfinite(fx) and math.isfinite(fy)):
                raise InputFormatError(f"{path}:{line_no}: non-finite force ({fx}, {fy})")
            if not (0 <= i < w and 0 <= j < h):
                raise InputFormatError(f"{path}:{line_no}: cell ({i},{j}) outside grid")
            k = j * w + i
            if seen[k]:
                raise InputFormatError(f"{path}:{line_no}: cell ({i},{j}) listed twice")
            seen[k] = 1
            forces[2 * k] = fx
            forces[2 * k + 1] = fy
    if field is None:
        raise InputFormatError(f"{path}: no grid meta line found")
    missing = seen.find(0)
    if missing >= 0:
        j, i = divmod(missing, w)
        raise InputFormatError(f"{path}: cell ({i},{j}) missing")
    field.force[...] = np.array(forces).reshape(field.force.shape)
    return field


def write_plan(path: str, result, field: FlowField) -> None:
    """Plan export: per-cell rows with the per-step cost split, then a
    summary line with the totals and the expansion count. The per-step
    costs are the planner's edge-cost table entries carried on ``result``.
    """
    spec = field.spec
    with open(path, "w", newline="\n") as fh:
        fh.write("# i,j,cx,cy,edge_cost_T,edge_cost_F\n")
        for cell, cost_t, cost_f in zip(result.path, result.step_cost_T, result.step_cost_F):
            c = spec.cell_center(*cell)
            fh.write(
                f"{cell[0]},{cell[1]},{_fmt(c.x)},{_fmt(c.y)},{_fmt(cost_t)},{_fmt(cost_f)}\n"
            )
        fh.write(
            f"# total C_T={_fmt(result.cost_T)} C_F={_fmt(result.cost_F)} "
            f"C_phi={_fmt(result.cost_total)} expanded={result.expanded}\n"
        )


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_episode_jsonl(path: str, log) -> None:
    """Episode log: meta line, one line per step, final outcome line."""
    with open(path, "w", newline="\n") as fh:
        fh.write(
            _json_line(
                {
                    "scenario": log.scenario.to_dict(),
                    "planner": log.planner,
                    "sim_dt": log.sim_dt,
                    "max_t": log.max_t,
                }
            )
            + "\n"
        )
        for rec in log.records:
            fh.write(
                _json_line(
                    {
                        "t": rec.t,
                        "robot": [rec.robot_x, rec.robot_y, rec.robot_vx, rec.robot_vy],
                        "peds": [
                            [ped_id, *row]
                            for ped_id, row in zip(rec.peds.ids.tolist(), rec.peds.state.tolist())
                        ],
                    }
                )
                + "\n"
            )
        fh.write(_json_line({"outcome": log.outcome}) + "\n")


def read_episode_jsonl(path: str):
    """Inverse of write_episode_jsonl."""
    from .sim import EpisodeLog, Scenario, StepRecord  # local import avoids a cycle

    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line]
    if len(lines) < 2:
        raise InputFormatError(f"{path}: truncated episode log")
    try:
        meta = json.loads(lines[0])
        records = []
        for line in lines[1:-1]:
            d = json.loads(line)
            records.append(StepRecord(d["t"], *d["robot"], TrackFrame.from_rows(d["t"], d["peds"])))
        outcome = json.loads(lines[-1])["outcome"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    return EpisodeLog(
        scenario=Scenario.from_dict(meta["scenario"]),
        planner=meta["planner"],
        sim_dt=meta["sim_dt"],
        max_t=meta["max_t"],
        records=records,
        outcome=outcome,
    )


def write_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)

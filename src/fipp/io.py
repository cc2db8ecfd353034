"""File formats: track logs, field exports, plan exports, episode logs.

All writers emit '\n' newlines and repr-formatted floats so outputs are
byte-identical across runs and round-trip losslessly through the readers.
"""

from __future__ import annotations

import itertools
import json
import math
from array import array
from typing import Iterable, Iterator

import numpy as np

from .flowfield import V_PED_MAX, FlowField, GridSpec, TrackFrame
from .geometry import Vec2

TRACK_HEADER = "# t,id,x,y,vx,vy"
FIELD_HEADER = "# i,j,cx,cy,fx,fy,mag"

# Rows as numpy parses them: the kind of each comma-separated column (f
# float, i int64, . left unparsed) and the structured dtype of the parsed
# columns.
_TRACK_COLUMNS = "fiffff"
_TRACK_ROW = np.dtype([("t", "f8"), ("id", "i8"), ("state", "f8", (4,))])
_FIELD_COLUMNS = "ii..ff."
_FIELD_ROW = np.dtype([("i", "i8"), ("j", "i8"), ("fx", "f8"), ("fy", "f8")])


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

    Raises InputFormatError naming the first offending line: a row that
    does not split into t,id,x,y,vx,vy, a field numpy's number parser
    rejects, a non-finite field, a velocity past the pedestrian speed cap,
    a timestamp before the previous one, or an id repeated within one
    timestamp.
    """
    data, scan = _parse_rows(path, _track_rows, _TRACK_ROW, _TRACK_COLUMNS)
    t = data["t"].copy()
    ids = data["id"].copy()
    state = np.ascontiguousarray(data["state"])
    del data
    vx, vy = state[:, 2], state[:, 3]

    # The cap test rounds as math.hypot does; the squared speed only picks
    # the rows that can fail it, with a margin far above its rounding error.
    too_fast = np.zeros(t.size, dtype=bool)
    with np.errstate(over="ignore"):
        candidates = np.flatnonzero(vx * vx + vy * vy > V_PED_MAX**2 * (1.0 - 1e-9))
    for k in candidates.tolist():
        too_fast[k] = math.hypot(vx[k], vy[k]) > V_PED_MAX
    backwards = np.zeros(t.size, dtype=bool)
    backwards[1:] = t[1:] < t[:-1]
    starts = np.ones(t.size, dtype=bool)
    starts[1:] = t[1:] != t[:-1]
    _raise_first_failure(path, scan, [
        (~(np.isfinite(t) & np.isfinite(state).all(axis=1)),
         lambda k: f"non-finite number in {_stripped_line(path, scan.line_nos[k])!r}"),
        (too_fast,
         lambda k: f"velocity {math.hypot(vx[k], vy[k]):.3f} m/s exceeds "
                   f"the {V_PED_MAX} m/s pedestrian cap"),
        (backwards,
         lambda k: f"timestamps must be non-decreasing ({float(t[k])} after "
                   f"{float(t[np.flatnonzero(starts[:k])[-1]])})"),
        (_repeats(np.cumsum(starts), ids),
         lambda k: f"pedestrian id {int(ids[k])} repeated at t={float(t[k])!r}"),
    ])
    bounds = np.append(np.flatnonzero(starts), t.size).tolist()
    return [
        TrackFrame(frame_t, ids[a:b], state[a:b])
        for frame_t, a, b in zip(t[bounds[:-1]].tolist(), bounds[:-1], bounds[1:])
    ]


def _track_rows(fh, scan: _Scan) -> Iterator[str]:
    """The data rows of a track log: stripped lines other than blank and
    '#' lines, up to the first that is not six comma-separated fields."""
    line_nos = scan.line_nos
    for line_no, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        commas = line.count(",")
        if commas != 5:
            scan.stop = (line_no, f"expected 6 fields t,id,x,y,vx,vy, got {commas + 1}")
            return
        line_nos.append(line_no)
        yield line


def write_field(path: str, field: FlowField) -> None:
    """One row per cell with its force vector; a meta line records the grid."""
    spec = field.spec
    xs = [_fmt(spec.cell_center(i, 0).x) for i in range(spec.width)]
    ys = [_fmt(spec.cell_center(0, j).y) for j in range(spec.height)]
    fx = field.force[..., 0].ravel().tolist()
    fy = field.force[..., 1].ravel().tolist()
    cells = itertools.product(range(spec.height), range(spec.width))
    with open(path, "w", newline="\n") as fh:
        fh.write(
            f"# grid {_fmt(spec.origin.x)} {_fmt(spec.origin.y)} "
            f"{_fmt(spec.cell_size)} {spec.width} {spec.height}\n"
        )
        fh.write(FIELD_HEADER + "\n")
        fh.write("".join([
            f"{i},{j},{xs[i]},{ys[j]},{a!r},{b!r},{m!r}\n"
            for (j, i), a, b, m in zip(cells, fx, fy, map(math.hypot, fx, fy))
        ]))


def read_field(path: str) -> FlowField:
    """Rebuild a FlowField (forces only) from a field export.

    Raises InputFormatError naming the first offending line: a malformed
    or second grid meta line, a data row before the meta line or of the
    wrong width, a field numpy's number parser rejects, a non-finite force,
    a cell outside the grid or a cell listed twice; then, naming the first
    one, on cells the export leaves out.
    """
    data, scan = _parse_rows(path, _field_rows, _FIELD_ROW, _FIELD_COLUMNS)
    i, j, fx, fy = data["i"], data["j"], data["fx"], data["fy"]
    spec = scan.spec
    if spec is None:  # so there are no rows either
        _raise_first_failure(path, scan, [])
        raise InputFormatError(f"{path}: no grid meta line found")
    _raise_first_failure(path, scan, [
        (~(np.isfinite(fx) & np.isfinite(fy)),
         lambda k: f"non-finite force ({float(fx[k])}, {float(fy[k])})"),
        ((i < 0) | (i >= spec.width) | (j < 0) | (j >= spec.height),
         lambda k: f"cell ({int(i[k])},{int(j[k])}) outside grid"),
        (_repeats(j, i),
         lambda k: f"cell ({int(i[k])},{int(j[k])}) listed twice"),
    ])
    if i.size < spec.n_cells:
        # The rows are distinct cells of the grid: the first missing cell in
        # row-major order is the first position p whose sorted cell is not
        # cell p. As p < i.size, a width clamped to i.size + 1 gives the same
        # quotient and remainder and keeps the arithmetic within int64.
        order = np.lexsort((i, j))
        width = min(spec.width, i.size + 1)
        p = np.arange(i.size)
        differs = np.flatnonzero((j[order] != p // width) | (i[order] != p % width))
        row, col = divmod(int(differs[0]) if differs.size else i.size, spec.width)
        raise InputFormatError(f"{path}: cell ({col},{row}) missing")
    field = FlowField(spec)
    field.force[j, i, 0] = fx
    field.force[j, i, 1] = fy
    return field


def _field_rows(fh, scan: _Scan) -> Iterator[str]:
    """The data rows of a field export, after its grid meta line (which
    sets ``scan.spec``), up to the first line that is not a well-formed
    row or that is a second grid meta line."""
    line_nos = scan.line_nos
    for line_no, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            if not line.startswith("# grid"):
                continue
            if scan.spec is not None:
                scan.stop = (line_no, "second grid meta line")
                return
            parts = line.split()
            if len(parts) != 7:
                scan.stop = (line_no, "malformed grid meta line")
                return
            try:
                ox, oy, cs = float(parts[2]), float(parts[3]), float(parts[4])
                w, h = int(parts[5]), int(parts[6])
                scan.spec = GridSpec(Vec2(ox, oy), cs, w, h)
            except ValueError as exc:
                scan.stop = (line_no, str(exc))
                return
            continue
        if scan.spec is None:
            scan.stop = (line_no, "data row before grid meta line")
            return
        if line.count(",") != 6:
            scan.stop = (line_no, "expected 7 fields i,j,cx,cy,fx,fy,mag")
            return
        line_nos.append(line_no)
        yield line


class _Scan:
    """What one pass over a file found besides its data rows."""

    def __init__(self) -> None:
        self.line_nos = array("q")  # the line number of each data row
        self.stop: tuple[int, str] | None = None  # the line that ends the rows, and why
        self.spec: GridSpec | None = None  # field exports: the grid meta line


def _parse_rows(path: str, rows, dtype: np.dtype, columns: str) -> tuple[np.ndarray, _Scan]:
    """Stream the data rows ``rows(fh, scan)`` finds in the file at ``path``
    into numpy's parser, by column, as a structured array of ``dtype``;
    ``columns`` gives the kind of each column (``f`` float, ``i`` int64,
    ``.`` left unparsed). When the parser rejects a row, return the rows
    before it, with that row's line and message as the scan's ``stop``."""
    usecols = [c for c, kind in enumerate(columns) if kind != "."]
    scan = _Scan()
    with open(path) as fh:
        source = rows(fh, scan)
        first = next(source, None)
        if first is None:  # loadtxt warns on empty input
            return np.empty(0, dtype), scan
        try:
            return _loadtxt(itertools.chain([first], source), dtype, usecols), scan
        except ValueError:
            pass
    scan = _Scan()
    with open(path) as fh:
        all_rows = list(rows(fh, scan))
    lo, hi = 0, len(all_rows)  # rows before lo parse; the first rejected one is before hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _loadtxt(all_rows[lo:mid], dtype, usecols)
        except ValueError:
            hi = mid
        else:
            lo = mid
    scan.stop = (scan.line_nos[lo], _number_error(all_rows[lo], columns))
    del scan.line_nos[lo:]
    return (_loadtxt(all_rows[:lo], dtype, usecols) if lo else np.empty(0, dtype)), scan


def _loadtxt(rows: Iterable[str], dtype, usecols: list[int]) -> np.ndarray:
    return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, usecols=usecols, ndmin=1)


def _number_error(row: str, columns: str) -> str:
    """Why numpy's number parser rejects ``row``: for the first field it
    rejects, Python's message, or the accepted grammar where Python would
    take the field."""
    fields = row.split(",")
    for c, kind in enumerate(columns):
        if kind == ".":
            continue
        try:
            _loadtxt([row], "i8" if kind == "i" else "f8", [c])
        except ValueError:
            break
    try:
        (int if kind == "i" else float)(fields[c])
    except ValueError as exc:
        return str(exc)
    return (
        f"{fields[c]!r} is not a number this reader accepts: ASCII digits, "
        f"no '_' separators, integers within int64"
    )


def _repeats(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """Mask of the rows whose (major, minor) pair an earlier row has."""
    order = np.lexsort((minor, major))  # stable: a repeat sorts after the row it repeats
    same = (major[order[1:]] == major[order[:-1]]) & (minor[order[1:]] == minor[order[:-1]])
    repeats = np.zeros(major.size, dtype=bool)
    repeats[order[1:][same]] = True
    return repeats


def _raise_first_failure(path: str, scan: _Scan, checks) -> None:
    """Raise InputFormatError for the first row that fails any of ``checks``
    or, if none fails, for the line that ended the rows. Each check is a
    row mask and a message for a failing row, in the order a row is
    checked. The rows before a failing row pass every check, so a mask
    need only be right up to the first row that fails."""
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        k = int(bad.argmax())
        message = next(message(k) for mask, message in checks if mask[k])
        raise InputFormatError(f"{path}:{scan.line_nos[k]}: {message}")
    if scan.stop is not None:
        raise InputFormatError(f"{path}:{scan.stop[0]}: {scan.stop[1]}")


def _stripped_line(path: str, line_no: int) -> str:
    with open(path) as fh:
        return next(itertools.islice(fh, line_no - 1, None)).strip()


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

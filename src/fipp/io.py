"""File formats: track logs, field exports, plan exports, episode logs.

All writers emit '\n' newlines and repr-formatted floats so outputs are
byte-identical across runs and parse back losslessly.

Both readers open their file once, as UTF-8 whatever the locale, and
read it by one rule. A regular file is parsed by one ``np.loadtxt`` call
on its path, after the '#' and blank lines it starts with. Any file numpy
cannot read as the block scanner ``_scan`` would, or whose rows fail a
check, goes to the scanner, which reads it again; so every message names
its line as the scanner does.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import stat
import warnings
from typing import Iterable

import numpy as np

from .flowfield import V_PED_MAX, FlowField, GridSpec, TrackLog, force_magnitude
from .geometry import Vec2
from .sim import SIM_DT

TRACK_HEADER = "# t,id,x,y,vx,vy"
FIELD_HEADER = "# i,j,cx,cy,fx,fy,mag"

# Characters per block the block scanner takes at a time. Blocks bound the
# memory a read takes: reading a 5.4 MB track log in 1 MB blocks raises the
# peak memory of ``fipp extract`` by about 3.4 MB more than 128 KB blocks
# do, at the same speed.
_BLOCK_CHARS = 1 << 17

# Rows as numpy parses them: one field per comma-separated column, in
# order (``state`` spans four). A ``U1`` field is a column left unparsed:
# it takes any text, so it rejects no row, while the row's full width
# makes numpy reject a row of another width.
_TRACK_ROW = np.dtype([("t", "f8"), ("id", "i8"), ("state", "f8", (4,))])
_FIELD_ROW = np.dtype([
    ("i", "i8"), ("j", "i8"), ("cx", "U1"), ("cy", "U1"), ("fx", "f8"), ("fy", "f8"),
    ("mag", "U1"),
])

# The suffixes numpy's loader reads through a decompressor.
_PACKED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


class InputFormatError(ValueError):
    """Malformed input file; message carries the offending line number."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _ped_rows(t: float, ids: np.ndarray, state: np.ndarray, step: int) -> list[str]:
    """The rows ``id,x,y,vx,vy`` of one frame's ``ids`` and ``state``,
    floats in repr form. Both the track log and the episode log are cut
    from these strings, so each float is formatted once. A non-finite
    state is a ValueError naming ``step``: neither file could be read back
    (a ``TrackLog``'s times are finite)."""
    if not np.isfinite(state).all():
        raise ValueError(f"step {step} (t={float(t)!r}): non-finite pedestrian state")
    return [
        f"{ped_id},{x!r},{y!r},{vx!r},{vy!r}"
        for ped_id, (x, y, vx, vy) in zip(ids.tolist(), state.tolist())
    ]


def _track_block(t: float, rows: list[str]) -> str:
    """The track-log lines ``t,id,x,y,vx,vy`` of one frame's rows."""
    if not rows:
        return ""
    t = _fmt(t)
    return t + "," + ("\n" + t + ",").join(rows) + "\n"


@contextlib.contextmanager
def _output(path: str):
    """``path`` opened for writing; if the block raises, the file is closed
    and removed, so no cut-off file is left (a path open refuses stays)."""
    fh = open(path, "w", newline="\n")
    try:
        with fh:
            yield fh
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise


def write_track_log(path: str, log: TrackLog) -> None:
    """One row per observation, frame after frame. A non-finite value is a
    ValueError naming the frame's index as its step, and leaves no file."""
    with _output(path) as fh:
        fh.write(TRACK_HEADER + "\n")
        for step, (t, ids, state) in enumerate(log.frames()):
            fh.write(_track_block(t, _ped_rows(t, ids, state, step)))


def read_track_log(path: str) -> TrackLog:
    """Parse a track log into columns, one frame per run of equal
    timestamps.

    Read by the rule of ``_read``: a regular file, such as every file
    ``write_track_log`` makes, in one ``np.loadtxt`` call. Raises
    InputFormatError naming the first offending line: a row that does not
    split into t,id,x,y,vx,vy, a field numpy's number parser rejects, a
    non-finite field, a velocity past the pedestrian speed cap, a
    timestamp before the previous one, or an id repeated within one
    timestamp.
    """
    data = _read(
        path, _TRACK_ROW, _track_row, _track_failures,
        lambda row, _: f"non-finite number in {row!r}",
    )
    t = data["t"]
    firsts = np.flatnonzero(_frame_starts(t))
    return TrackLog(t[firsts], firsts, data["id"], data["state"])


def _frame_starts(t: np.ndarray) -> np.ndarray:
    """Mask of the rows whose timestamp differs from the row before."""
    starts = np.ones(t.size, dtype=bool)
    starts[1:] = t[1:] != t[:-1]
    return starts


def _track_failures(data: dict) -> list:
    """The checks of a track log's rows, for ``_raise_first_failure``."""
    t, ids, state = data["t"], data["id"], data["state"]
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
    starts = _frame_starts(t)
    return [
        (too_fast,
         lambda k: f"velocity {math.hypot(vx[k], vy[k]):.3f} m/s exceeds "
                   f"the {V_PED_MAX} m/s pedestrian cap"),
        (backwards,
         lambda k: f"timestamps must be non-decreasing ({float(t[k])} after "
                   f"{float(t[np.flatnonzero(starts[:k])[-1]])})"),
        # The frame labels never fall along the rows, so a stable sort of
        # the ids alone puts a repeated (frame, id) pair next to its first.
        (_repeats(np.argsort(ids, kind="stable"), ids, np.cumsum(starts)),
         lambda k: f"pedestrian id {int(ids[k])} repeated at t={float(t[k])!r}"),
    ]


def _track_row(line: str) -> bool:
    """Whether a stripped, non-blank track-log line is a data row (or a
    '#' line to skip); a ValueError for a line of the wrong width."""
    if line[0] == "#":
        return False
    commas = line.count(",")
    if commas != 5:
        raise ValueError(f"expected 6 fields t,id,x,y,vx,vy, got {commas + 1}")
    return True


def write_field(path: str, field: FlowField) -> np.ndarray:
    """One row per cell with its force vector; a meta line records the grid.
    Returns the force magnitudes written, indexed ``[j, i]``."""
    spec = field.spec
    xs = [_fmt(spec.cell_center(i, 0).x) for i in range(spec.width)]
    ys = [_fmt(spec.cell_center(0, j).y) for j in range(spec.height)]
    fx = field.force[..., 0].ravel().tolist()
    fy = field.force[..., 1].ravel().tolist()
    magnitudes = force_magnitude(field.force)
    mag = magnitudes.ravel().tolist()
    cells = itertools.product(range(spec.height), range(spec.width))
    with _output(path) as fh:
        fh.write(
            f"# grid {_fmt(spec.origin.x)} {_fmt(spec.origin.y)} "
            f"{_fmt(spec.cell_size)} {spec.width} {spec.height}\n"
        )
        fh.write(FIELD_HEADER + "\n")
        fh.write("".join([
            f"{i},{j},{xs[i]},{ys[j]},{a!r},{b!r},{m!r}\n"
            for (j, i), a, b, m in zip(cells, fx, fy, mag)
        ]))
    return magnitudes


def read_field(path: str) -> FlowField:
    """Rebuild a FlowField (forces only) from a field export.

    Read by the rule of ``_read``: a regular file, such as every file
    ``write_field`` makes, in one ``np.loadtxt`` call. Raises
    InputFormatError naming the first offending line: a malformed or
    second grid meta line, a data row before the meta line or of the wrong
    width, a field numpy's number parser rejects, a non-finite force, a
    cell outside the grid or a cell listed twice; then, naming the first
    one, on cells the export leaves out.
    """
    spec = counts = None

    def field_row(line: str) -> bool:
        nonlocal spec
        if line[0] == "#":
            if line.startswith("# grid"):
                if spec is not None:
                    raise ValueError("second grid meta line")
                spec = _grid_spec(line)
            return False
        if spec is None:
            raise ValueError("data row before grid meta line")
        if line.count(",") != 6:
            raise ValueError("expected 7 fields i,j,cx,cy,fx,fy,mag")
        return True

    def failures(data: dict) -> list:
        nonlocal counts
        i, j = data["i"], data["j"]
        if spec is None:  # no grid meta line came before the rows
            return [(np.ones(i.size, dtype=bool), lambda k: "data row before grid meta line")]
        outside = (i < 0) | (i >= spec.width) | (j < 0) | (j >= spec.height)
        # Each in-grid row's cell j * width + i, exact up to n = i.size and
        # past n when larger: clipping j and i to [0, n + 1], and the width
        # to n + 1, keeps the arithmetic within int64. Every cell of a grid
        # of at most n cells is exact, and a larger grid misses a cell up
        # to n, since the rows list at most n distinct ones.
        n = i.size
        cell = np.clip(j, 0, n + 1) * min(spec.width, n + 1) + np.clip(i, 0, n + 1)
        counts = np.bincount(cell[~outside & (cell <= n)], minlength=n + 1)
        # A row repeats an earlier one only if its cell is counted twice or
        # lies past n; among those rows, the first of each cell is not a repeat.
        maybe = np.flatnonzero(~outside & ((cell > n) | (counts[np.minimum(cell, n)] > 1)))
        twice = np.zeros(n, dtype=bool)
        if maybe.size:
            _, first = np.unique(np.stack([i[maybe], j[maybe]], 1), axis=0, return_index=True)
            twice[maybe] = True
            twice[maybe[first]] = False
        return [
            (outside, lambda k: f"cell ({int(i[k])},{int(j[k])}) outside grid"),
            (twice, lambda k: f"cell ({int(i[k])},{int(j[k])}) listed twice"),
        ]

    def restart() -> None:  # the scanner reads the meta line again
        nonlocal spec
        spec = None

    data = _read(
        path, _FIELD_ROW, field_row, failures,
        lambda _, row: f"non-finite force ({float(row['fx'])}, {float(row['fy'])})",
        restart,
    )
    if spec is None:
        raise InputFormatError(f"{path}: no grid meta line found")
    i, j = data["i"], data["j"]
    if i.size < spec.n_cells:
        # The rows are distinct cells of the grid: the first missing cell in
        # row-major order is the first one failures() left uncounted, at most n.
        row, col = divmod(int(np.argmin(counts)), spec.width)
        raise InputFormatError(f"{path}: cell ({col},{row}) missing")
    field = FlowField(spec)
    field.force[j, i, 0] = data["fx"]
    field.force[j, i, 1] = data["fy"]
    return field


def _grid_spec(line: str) -> GridSpec:
    """The grid of a stripped ``# grid ox oy cs w h`` meta line; a
    ValueError saying what is wrong with any other."""
    parts = line.split()
    if len(parts) != 7:
        raise ValueError("malformed grid meta line")
    ox, oy, cs = float(parts[2]), float(parts[3]), float(parts[4])
    w, h = int(parts[5]), int(parts[6])
    return GridSpec(Vec2(ox, oy), cs, w, h)


def _read(path: str, dtype, is_row, failures, nonfinite, restart=lambda: None) -> dict:
    """The rows of the file at ``path``, each field of ``dtype`` as one
    array: ``_read_plain``'s if their checks ``failures(data)`` all pass,
    else ``_scan``'s (after ``restart()``, as ``is_row`` takes the '#'
    lines again), and ``_raise_first_failure`` names the line."""
    with _open_text(path) as fh:
        data = _read_plain(fh, dtype, is_row)
        if data is not None and not any(mask.any() for mask, _ in failures(data)):
            return data
        restart()
        data, line_nos, stop = _scan(fh, dtype, is_row, nonfinite)
    _raise_first_failure(path, line_nos, stop, failures(data))
    return data


def _read_plain(fh, dtype, is_row):
    """The rows of the regular file ``fh``, each field of ``dtype`` as one
    array, from one ``np.loadtxt`` call; or None, for ``_scan`` to read and
    name the line: when ``is_row`` rejects a leading '#' line, numpy raises
    or warns (a byte past ASCII, a row it rejects, no row) or a number is
    not finite. ``fh`` is left at its start; a pipe is left unread.

    numpy skips the leading '#' lines and blank lines, reads '\\r\\n' and
    '\\r' as '\\n', and rejects a row of another width, since ``dtype`` has
    a field per column. It parses a path in large blocks but a file object
    line by line, so it gets the path. It opens a path through
    ``np.lib._datasource``, which decompresses by suffix, fetches a name
    that looks like a URL and tries other names when the path is gone; so
    a name with a compressed suffix is left to the scanner, numpy gets the
    absolute path, and its parse counts only if the path still names the
    open file. It decodes ASCII only: a byte past it is a lone surrogate
    to the scanner, where latin-1 would read 0xA0 as a space.
    """
    opened = os.fstat(fh.fileno())
    path = os.fsdecode(fh.name)
    if not stat.S_ISREG(opened.st_mode) or path.endswith(_PACKED_SUFFIXES):
        return None
    try:
        header = 0  # the leading '#' and blank lines, which numpy skips
        while (line := fh.readline()) and (text := line.strip())[:1] in ("", "#"):
            if text:
                is_row(text)
            header += 1
        path = os.path.join(os.getcwd(), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # comments=None keeps numpy's block mode.
            data = np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, skiprows=header, ndmin=1,
                encoding="ascii",
            )
        moved = _identity(os.stat(path)) != _identity(opened)
    except Exception:  # is_row's ValueError, anything numpy raises or warns, or a moved path
        return None
    finally:
        fh.seek(0)
    if moved or not _finite(data).all():
        return None
    return {name: data[name].copy() for name in dtype.names}


def _identity(st: os.stat_result) -> tuple:
    """What tells one version of a file from another: its device, inode,
    size and modification time."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _scan(fh, dtype, is_row, nonfinite):
    """The data rows of the open text file ``fh``, each field of ``dtype``
    as one array; the line number of each row; and the line that ends the
    rows with the reason, or None. The readers' only source of line
    numbers (see ``_read``). One read of the file, in blocks
    of about ``_BLOCK_CHARS`` characters that end at the end of a line; in
    text mode, '\\r\\n' and '\\r' arrive as '\\n'."""
    parts, line_nos, stop = [np.empty(0, dtype)], [np.empty(0, np.intp)], None
    base = 0  # the lines before the block
    while stop is None and (text := fh.read(_BLOCK_CHARS)):
        text += fh.readline()
        data, numbers, stop, base = _scan_block(text, base, dtype, is_row, nonfinite)
        parts.append(data)
        line_nos.append(numbers)
    data = {name: np.concatenate([part[name] for part in parts]) for name in dtype.names}
    return data, np.concatenate(line_nos), stop


def _scan_block(text: str, base: int, dtype, is_row, nonfinite):
    """``_scan`` of a block of lines, the first of them line ``base + 1``:
    its data rows parsed, their line numbers, the line that ends the rows
    with the reason or None, and the lines before the next block.

    Blank lines are skipped. ``is_row`` tells whether any other stripped
    line is a data row or a line to skip, or raises a ValueError saying
    why the rows end there. They also end at the first row numpy's parser
    rejects, and at the first holding a non-finite float, with
    ``nonfinite(row, parsed row)``.
    """
    lines = text.split("\n")
    rows, at, stop = [], [], None
    for k, line in enumerate(lines):
        line = line.strip()
        if line:
            try:
                if is_row(line):
                    rows.append(line)
                    at.append(base + k + 1)
            except ValueError as exc:
                stop = (base + k + 1, str(exc))
                break
    base += len(lines) - 1
    if not rows:  # loadtxt warns on empty input
        return np.empty(0, dtype), np.empty(0, np.intp), stop, base
    data, bad = _parse(rows, dtype)
    if bad is not None:
        stop = (at[bad], _number_error(rows[bad], dtype))
    finite = _finite(data)
    if not finite.all():
        bad = int(finite.argmin())
        stop = (at[bad], nonfinite(rows[bad], data[bad]))
        data = data[:bad]
    return data, np.array(at[: len(data)], np.intp), stop, base


def _finite(data: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``data`` whose floats are all finite."""
    return np.logical_and.reduce([
        np.isfinite(data[name]).all(axis=tuple(range(1, data[name].ndim)))
        for name in data.dtype.names
        if data.dtype[name].base.kind == "f"
    ])


def _parse(rows: list[str], dtype) -> tuple[np.ndarray, int | None]:
    """``rows`` parsed, and None; or, when numpy's parser rejects a row, the
    rows before the first it rejects, and that row's index."""
    try:
        return _loadtxt(rows, dtype), None
    except ValueError:
        pass
    lo, hi = 0, len(rows)  # rows before lo parse; the first rejected one is before hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _loadtxt(rows[lo:mid], dtype)
        except ValueError:
            hi = mid
        else:
            lo = mid
    return (_loadtxt(rows[:lo], dtype) if lo else np.empty(0, dtype)), lo


def _loadtxt(rows: Iterable[str], dtype, usecols=None) -> np.ndarray:
    return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, usecols=usecols, ndmin=1)


def _number_error(row: str, dtype) -> str:
    """Why numpy's number parser rejects ``row`` of ``dtype``: for the
    first field it rejects, Python's message, or the accepted grammar where
    Python would take the field."""
    fields = row.split(",")
    # The kind of each column: f float, i int64, U left unparsed.
    kinds = "".join(dtype[name].base.kind * math.prod(dtype[name].shape) for name in dtype.names)
    for c, kind in enumerate(kinds):
        if kind == "U":
            continue
        try:
            _loadtxt([row], kind + "8", [c])
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


def _repeats(order: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Mask of the rows whose tuple of ``keys`` an earlier row has, given
    ``order``, a stable sort of the rows that puts equal tuples next to
    each other: a repeat then sorts after the row it repeats."""
    same = np.logical_and.reduce([key[order[1:]] == key[order[:-1]] for key in keys])
    repeats = np.zeros(order.size, dtype=bool)
    repeats[order[1:][same]] = True
    return repeats


def _raise_first_failure(path: str, line_nos: np.ndarray, stop, checks) -> None:
    """Raise InputFormatError for the first row that fails any of ``checks``
    or, if none fails, for the line that ended the rows. Each check is a
    row mask and a message for a failing row, in the order a row is
    checked. The rows before a failing row pass every check, so a mask
    need only be right up to the first row that fails."""
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        k = int(bad.argmax())
        message = next(message(k) for mask, message in checks if mask[k])
        raise InputFormatError(f"{path}:{line_nos[k]}: {message}")
    if stop is not None:
        raise InputFormatError(f"{path}:{stop[0]}: {stop[1]}")


def _open_text(path: str):
    """Open a track log or field export as UTF-8 whatever the locale. A byte
    that is not UTF-8 reads as a lone surrogate, which the number parsers
    reject, so a number holding one fails the check of its line. A path
    that cannot be opened raises open's OSError, which names it."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def write_plan(path: str, result) -> None:
    """Plan export: per-cell rows with the cell center and the per-step
    cost split, then a summary line with the totals and the expansion
    count. Centers and per-step costs are the ones carried on ``result``.
    """
    rows = zip(result.path, result.waypoints, result.step_cost_T, result.step_cost_F)
    with _output(path) as fh:
        fh.write("# i,j,cx,cy,edge_cost_T,edge_cost_F\n")
        for cell, c, cost_t, cost_f in rows:
            fh.write(
                f"{cell[0]},{cell[1]},{_fmt(c.x)},{_fmt(c.y)},{_fmt(cost_t)},{_fmt(cost_f)}\n"
            )
        fh.write(
            f"# total C_T={_fmt(result.cost_T)} C_F={_fmt(result.cost_F)} "
            f"C_phi={_fmt(result.cost_total)} expanded={result.expanded}\n"
        )


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_episode_jsonl(path: str, log, tracks_path: str | None = None) -> None:
    """Episode log: meta line, one line per frame of ``log.crowd`` with
    its time, the robot's row and the crowd's rows, final outcome line.
    With ``tracks_path``, the crowd's track log is written in the same
    pass, from the same formatted rows. A non-finite time, robot or
    pedestrian value is a ValueError naming the step, and leaves neither
    file behind.

    A step line is what ``_json_line`` writes for its dict; for finite
    floats and ints ``repr`` is what ``json.dumps`` writes."""
    with contextlib.ExitStack() as files:
        fh = files.enter_context(_output(path))
        tracks = None
        if tracks_path is not None:
            tracks = files.enter_context(_output(tracks_path))
            tracks.write(TRACK_HEADER + "\n")
        fh.write(
            _json_line(
                {
                    "scenario": log.scenario.to_dict(),
                    "planner": log.planner,
                    "sim_dt": SIM_DT,
                    "max_t": log.max_t,
                }
            )
            + "\n"
        )
        frames = zip(log.crowd.frames(), log.robot.tolist())
        for step, ((t, ids, state), robot) in enumerate(frames):
            rows = _ped_rows(t, ids, state, step)
            if not all(map(math.isfinite, robot)):
                raise ValueError(f"step {step} (t={t!r}): non-finite robot state {tuple(robot)}")
            peds = "[[" + "],[".join(rows) + "]]" if rows else "[]"
            fh.write(f'{{"peds":{peds},"robot":[{",".join(map(repr, robot))}],"t":{t!r}}}\n')
            if tracks is not None:
                tracks.write(_track_block(t, rows))
        fh.write(_json_line({"outcome": log.outcome}) + "\n")


def write_json(path: str, obj) -> None:
    with _output(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


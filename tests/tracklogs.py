"""Track logs for tests: ``one_frame`` builds a one-frame TrackLog from
rows, as the simulator's frames are, and ``columns`` gives a log's columns
bit for bit, so two logs compare with ``==``; ``record_columns`` does the
same for an episode's step records."""

from __future__ import annotations

import numpy as np

from fipp import TrackLog


def one_frame(t: float, rows) -> TrackLog:
    """A one-frame log from ``(id, x, y, vx, vy)`` rows; a repeated id is a
    ValueError."""
    rows = list(rows)
    ids = np.array([r[0] for r in rows], dtype=np.int64)
    if len(set(ids.tolist())) != ids.size:
        raise ValueError("duplicate pedestrian ids within a frame")
    state = np.array([r[1:] for r in rows], dtype=float).reshape(len(rows), 4)
    return TrackLog((t,), (0,), ids, state)


def columns(log: TrackLog) -> tuple[bytes, list, list, bytes]:
    """``log``'s t, starts, ids and state, the floats as their bytes."""
    return log.t.tobytes(), log.starts.tolist(), log.ids.tolist(), log.state.tobytes()


def record_columns(records) -> list[tuple]:
    """Each StepRecord of ``records`` as its time, its robot state and its
    crowd's columns."""
    return [
        (r.t, r.robot_x, r.robot_y, r.robot_vx, r.robot_vy, columns(r.peds)) for r in records
    ]

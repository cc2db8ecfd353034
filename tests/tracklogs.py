"""Between the track-log reader's columns and per-frame objects, for tests
that compare frames: ``frames_of`` cuts a TrackLog into TrackFrames, and
``log_of`` puts TrackFrames back into columns."""

from __future__ import annotations

import numpy as np

from fipp import TrackFrame, TrackLog


def frames_of(log: TrackLog) -> list[TrackFrame]:
    """One TrackFrame per frame of ``log``, empty frames included."""
    bounds = [*log.starts.tolist(), log.ids.size]
    return [
        TrackFrame(t, log.ids[a:b], log.state[a:b])
        for t, a, b in zip(log.t.tolist(), bounds[:-1], bounds[1:])
    ]


def log_of(frames: list[TrackFrame]) -> TrackLog:
    """The rows of ``frames`` as columns, in frame order."""
    lengths = [len(frame) for frame in frames]
    return TrackLog(
        [frame.t for frame in frames],
        np.cumsum([0, *lengths[:-1]]) if frames else [],
        np.concatenate([frame.ids for frame in frames] or [np.empty(0, np.int64)]),
        np.concatenate([frame.state for frame in frames] or [np.empty((0, 4))]),
    )

"""Trajectory-rollout local planner (the comparison baseline).

Each control step forward-simulates a fixed set of (speed, turn rate)
commands under unicycle kinematics, scores every rollout against the goal
and the predicted pedestrian positions, and executes the best one. Any
rollout that passes within COLLISION_RADIUS of a predicted pedestrian is
rejected outright; when every candidate is rejected the planner commands
zero velocity. Standing still is itself a candidate, so in dense crowds
the argmin settles on it and the robot freezes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import EPS, Vec2

Command = tuple[float, float]  # (speed m/s, turn rate rad/s)

_SPEEDS = (0.0, 0.5, 1.0)
_TURN_RATES = (0.0, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2)
CANDIDATES: tuple[Command, ...] = tuple((s, w) for s in _SPEEDS for w in _TURN_RATES)

PREDICT_HORIZON = 1.0  # s each rollout and pedestrian prediction covers
ROLLOUT_DT = 0.1
N_STEPS = max(1, round(PREDICT_HORIZON / ROLLOUT_DT))
GOAL_WEIGHT = 1.0
CLEARANCE_WEIGHT = 0.1
COLLISION_RADIUS = 0.3
# Clearance beyond this contributes nothing; keeps wide-open rollouts from
# dominating the goal term.
CLEARANCE_CAP = 2.0


def step_unicycle(x: float, y: float, heading: float, cmd: Command, dt: float):
    """One exact constant-twist step: the robot travels an arc of radius
    speed/turn_rate (a straight segment when the turn rate is ~0)."""
    v, w = cmd
    if abs(w) < EPS:
        return x + v * dt * math.cos(heading), y + v * dt * math.sin(heading), heading
    nh = heading + w * dt
    return (
        x + (v / w) * (math.sin(nh) - math.sin(heading)),
        y - (v / w) * (math.cos(nh) - math.cos(heading)),
        nh,
    )


def predict_obstacles(peds: np.ndarray, n_steps: int, dt: float) -> np.ndarray:
    """Constant-velocity extrapolation of pedestrian rows x, y, vx, vy:
    (n_steps+1, n_peds, 2) positions."""
    steps = np.arange(n_steps + 1)[:, None, None] * dt
    return peds[None, :, :2] + steps * peds[None, :, 2:]


# In the robot frame each rollout is a fixed arc: build them once and place
# them by rotation.
@functools.cache
def _local_trajectories() -> np.ndarray:
    trajs = np.zeros((len(CANDIDATES), N_STEPS + 1, 2))
    for c, cmd in enumerate(CANDIDATES):
        x, y, th = 0.0, 0.0, 0.0
        for k in range(1, N_STEPS + 1):
            x, y, th = step_unicycle(x, y, th, cmd, ROLLOUT_DT)
            trajs[c, k] = (x, y)
    trajs.setflags(write=False)  # shared by every caller
    return trajs


def _clearances(trajs: np.ndarray, obstacles: np.ndarray) -> np.ndarray:
    """Each rollout's least distance to a predicted pedestrian at the same
    time point: the square root of the least ``dx*dx + dy*dy`` over time
    and pedestrians. ``trajs`` is (candidates, N_STEPS+1, 2) and
    ``obstacles`` (N_STEPS+1, n_peds, 2), as ``predict_obstacles`` gives
    them. No pedestrian gives inf; a NaN row gives NaN.

    The sum is the one ``np.linalg.norm`` makes over a length-2 axis, and
    ``sqrt`` is correctly rounded and monotone, so the root of the least
    square is bit for bit the least of the roots: one root per candidate
    instead of one per (candidate, time, pedestrian)."""
    dx = trajs[:, :, 0, None] - obstacles[:, :, 0]
    dy = trajs[:, :, 1, None] - obstacles[:, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx.min(axis=(1, 2), initial=math.inf))


def tr_step(position: Vec2, heading: float, peds: np.ndarray, goal: Vec2) -> Command:
    """Pick the lowest-scoring candidate (first wins ties) for a robot at
    ``position`` facing ``heading`` (rad, world frame) against the
    pedestrians ``peds`` (rows x, y, vx, vy); zero command when every
    candidate is rejected. A row holding a NaN or an infinity is a
    ValueError naming the first such row: a NaN would make every score NaN
    and freeze the robot, and an infinite position would be dropped as out
    of reach without a word.

    Only the pedestrians a rollout can reach are scored. No rollout point
    lies farther than max(_SPEEDS) * PREDICT_HORIZON from the robot (an
    arc's chord is no longer than the arc), so a pedestrian whose distance
    to the robot, less its own travel |v| * PREDICT_HORIZON, exceeds
    CLEARANCE_CAP plus that reach (and 1e-6 for rounding) stays farther
    than CLEARANCE_CAP from every rollout point: it can change neither the
    collision test nor the capped clearance. Each squared distance is
    computed on its own (``_clearances``), so the least one over the kept
    pedestrians, and its root, are the same floats as over the whole crowd
    whenever the clearance is below the cap, and at or above the cap both
    clearances clip to CLEARANCE_CAP: scores and the chosen command are
    bit-identical to scoring the whole crowd."""
    if not np.isfinite(peds).all():
        row = int(np.flatnonzero(~np.isfinite(peds).all(axis=1))[0])
        raise ValueError(f"pedestrian row {row} is not finite: {peds[row].tolist()}")
    local = _local_trajectories()
    cos_h, sin_h = math.cos(heading), math.sin(heading)
    rot = np.array([[cos_h, -sin_h], [sin_h, cos_h]])
    # A matmul, not explicit cos/sin products: those round differently
    # and move placed rollout points in the last bit in most poses.
    trajs = local @ rot.T + np.array([position.x, position.y])

    reach = max(_SPEEDS) * PREDICT_HORIZON
    travel = PREDICT_HORIZON * np.hypot(peds[:, 2], peds[:, 3])
    gap = np.hypot(peds[:, 0] - position.x, peds[:, 1] - position.y) - travel
    peds = peds[~(gap > CLEARANCE_CAP + reach + 1e-6)]  # a gap overflowing to NaN stays
    obstacles = predict_obstacles(peds, N_STEPS, ROLLOUT_DT)
    ends = trajs[:, -1, :]
    goal_dists = np.hypot(ends[:, 0] - goal.x, ends[:, 1] - goal.y)
    clearances = _clearances(trajs, obstacles)
    scores = GOAL_WEIGHT * goal_dists - CLEARANCE_WEIGHT * np.minimum(clearances, CLEARANCE_CAP)
    scores[clearances < COLLISION_RADIUS] = math.inf

    best = int(np.argmin(scores))
    if not math.isfinite(scores[best]):
        return (0.0, 0.0)
    return CANDIDATES[best]

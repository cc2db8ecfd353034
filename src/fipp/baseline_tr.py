"""Trajectory-rollout local planner (the comparison baseline).

Each control step forward-simulates a fixed set of (speed, turn rate)
commands under unicycle kinematics, scores every rollout against the goal
and the predicted pedestrian positions, and executes the best one. Any
rollout that passes within collision_radius of a predicted pedestrian is
rejected outright; when every candidate is rejected the planner commands
zero velocity. Standing still is itself a candidate, so in dense crowds
the argmin settles on it and the robot freezes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EPS, Vec2, check_finite

Command = tuple[float, float]  # (speed m/s, turn rate rad/s)

_SPEEDS = (0.0, 0.5, 1.0)
_TURN_RATES = (0.0, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2)
DEFAULT_CANDIDATES: tuple[Command, ...] = tuple(
    (s, w) for s in _SPEEDS for w in _TURN_RATES
)


@dataclass(frozen=True)
class RolloutParams:
    candidates: tuple[Command, ...] = DEFAULT_CANDIDATES
    horizon: float = 1.0
    sim_dt: float = 0.1
    clearance_weight: float = 0.1
    goal_weight: float = 1.0
    collision_radius: float = 0.3
    # Clearance beyond this contributes nothing; keeps wide-open rollouts
    # from dominating the goal term.
    clearance_cap: float = 2.0

    def __post_init__(self) -> None:
        check_finite(
            horizon=self.horizon,
            sim_dt=self.sim_dt,
            clearance_weight=self.clearance_weight,
            goal_weight=self.goal_weight,
            collision_radius=self.collision_radius,
            clearance_cap=self.clearance_cap,
        )
        check_finite(**{
            f"candidates[{k}][{m}]": x
            for k, cmd in enumerate(self.candidates)
            for m, x in enumerate(cmd)
        })
        if self.horizon <= 0 or self.sim_dt <= 0:
            raise ValueError("horizon and sim_dt must be positive")
        if self.collision_radius <= 0:
            raise ValueError("collision_radius must be positive")
        if not self.candidates:
            raise ValueError("candidate set must be non-empty")

    @property
    def n_steps(self) -> int:
        return max(1, round(self.horizon / self.sim_dt))


@dataclass
class RobotState:
    position: Vec2
    heading: float  # rad, world frame
    speed: float = 0.0


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
    if len(peds) == 0:
        return np.zeros((n_steps + 1, 0, 2))
    steps = np.arange(n_steps + 1)[:, None, None] * dt
    return peds[None, :, :2] + steps * peds[None, :, 2:]


# Rollout shapes depend only on (candidates, horizon, dt), not on the pose:
# in the robot frame each is a fixed arc. Cache them and place by rotation.
_local_cache: dict[tuple, np.ndarray] = {}


def _local_trajectories(params: RolloutParams) -> np.ndarray:
    key = (params.candidates, params.n_steps, params.sim_dt)
    cached = _local_cache.get(key)
    if cached is None:
        n = params.n_steps
        trajs = np.zeros((len(params.candidates), n + 1, 2))
        for c, cmd in enumerate(params.candidates):
            x, y, th = 0.0, 0.0, 0.0
            for k in range(1, n + 1):
                x, y, th = step_unicycle(x, y, th, cmd, params.sim_dt)
                trajs[c, k] = (x, y)
        cached = trajs
        _local_cache[key] = trajs
    return cached


def tr_step(
    state: RobotState,
    peds: np.ndarray,
    goal: Vec2,
    params: RolloutParams,
) -> Command:
    """Pick the lowest-scoring candidate (first wins ties) against the
    pedestrians ``peds`` (rows x, y, vx, vy); zero command when every
    candidate is rejected."""
    local = _local_trajectories(params)
    cos_h, sin_h = math.cos(state.heading), math.sin(state.heading)
    rot = np.array([[cos_h, -sin_h], [sin_h, cos_h]])
    trajs = local @ rot.T + np.array([state.position.x, state.position.y])

    obstacles = predict_obstacles(peds, params.n_steps, params.sim_dt)
    ends = trajs[:, -1, :]
    goal_dists = np.hypot(ends[:, 0] - goal.x, ends[:, 1] - goal.y)
    if obstacles.shape[1] == 0:
        clearances = np.full(len(trajs), params.clearance_cap)
    else:
        d = np.linalg.norm(trajs[:, :, None, :] - obstacles[None, :, :, :], axis=3)
        clearances = d.min(axis=(1, 2))
    scores = params.goal_weight * goal_dists - params.clearance_weight * np.minimum(
        clearances, params.clearance_cap
    )
    scores[clearances < params.collision_radius] = math.inf

    best = int(np.argmin(scores))
    if not math.isfinite(scores[best]):
        return (0.0, 0.0)
    return params.candidates[best]

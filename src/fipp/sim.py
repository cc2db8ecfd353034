"""Deterministic 2D crowd-and-robot simulator.

Four scenario families exercise the planners: chaotic (independent random
walkers), single_flow (one lane), double_flow (two antiparallel lanes) and
intersection (two perpendicular lanes). A fifth fixture, freeze_wall, lines
up stationary pedestrians shoulder to shoulder across the robot's route to
reproduce the freezing-robot failure of reactive planners.

Every episode runs in the same WORLD and steps by SIM_DT. Everything
random flows from named substreams of the scenario seed (0 = geometry,
1 = initial placement, 2 = per-step noise and respawns), so episodes are
reproducible bit for bit. Pedestrians walk their lane direction plus
per-step Gaussian heading noise, stop when the robot is close and inside
their heading cone, and despawn/respawn with fresh ids so each id's track
stays contiguous and per-lane counts stay constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .baseline_tr import PREDICT_HORIZON, predict_obstacles, step_unicycle, tr_step
from .flowfield import FlowField, FlowParams, GridSpec, TrackLog
from .geometry import EPS, Vec2, check_finite
from .planner import CostParams, NoPathError, Replanner

SCENARIO_KINDS = ("chaotic", "single_flow", "double_flow", "intersection", "freeze_wall")
BENCH_KINDS = ("chaotic", "single_flow", "double_flow", "intersection")  # no freeze_wall fixture
PLANNERS = ("fipp", "tr")
OUTCOMES = ("reached", "timeout", "frozen")

WORLD_SIZE = 20.0
CELL_SIZE = 0.5
SIM_DT = 0.1
MAX_T = 120.0
V_MAX = 1.0
GOAL_TOL = 0.25
FREEZE_DURATION = 10.0  # s of zero commanded speed before the episode counts as frozen
LANE_SPEED = 1.2
CHAOTIC_SPEED = 1.0
HEADING_NOISE_STD = 0.1  # rad per step
YIELD_DIST = 0.5
YIELD_HALF_ANGLE = math.pi / 3  # pedestrians stop for a robot inside this cone
N_PEDS_RANGE = (25, 50)


@dataclass(frozen=True)
class Rect:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def contains(self, p: Vec2) -> bool:
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def inset(self, dx: float, dy: float) -> "Rect":
        return Rect(self.xmin + dx, self.ymin + dy, self.xmax - dx, self.ymax - dy)

    def sample(self, rng) -> tuple[float, float]:
        """A uniform point in the rect, x drawn before y."""
        return rng.uniform(self.xmin, self.xmax), rng.uniform(self.ymin, self.ymax)

    def as_list(self) -> list[float]:
        return [self.xmin, self.ymin, self.xmax, self.ymax]


WORLD = Rect(0.0, 0.0, WORLD_SIZE, WORLD_SIZE)
CHAOTIC_AREA = WORLD.inset(0.5, 0.5)  # where chaotic walkers are placed and respawn


def grid_covering(cell_size: float) -> GridSpec:
    """The grid of square cells of side ``cell_size`` from the lower-left
    corner of WORLD with the fewest cells per axis that cover it."""
    check_finite(cell_size=cell_size)
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    cells = math.ceil(WORLD_SIZE / cell_size)
    return GridSpec(Vec2(WORLD.xmin, WORLD.ymin), cell_size, cells, cells)


@dataclass(frozen=True)
class Lane:
    """A directed pedestrian corridor. Despawned pedestrians respawn
    immediately, so the count stays constant."""

    region: Rect
    direction: Vec2  # unit
    speed: float

    def __post_init__(self) -> None:
        if abs(self.direction.magnitude() - 1.0) > 1e-9:
            raise ValueError("lane direction must be unit length")
        if self.speed < 0:
            raise ValueError("lane speed must be nonnegative")

    @property
    def heading(self) -> float:
        """The lane direction as an angle (rad)."""
        return math.atan2(self.direction.y, self.direction.x)

    def placement_region(self) -> Rect:
        """Where pedestrians may initially stand: the lane inset by half a
        default cell so band-edge cells stay mostly untouched."""
        return self.region.inset(0.5, 0.5)

    def spawn_region(self) -> Rect:
        """Upstream slab of the placement region used for respawns."""
        p = self.placement_region()
        depth = 2.0
        if self.direction.x > 0.5:
            return Rect(p.xmin, p.ymin, min(p.xmin + depth, p.xmax), p.ymax)
        if self.direction.x < -0.5:
            return Rect(max(p.xmax - depth, p.xmin), p.ymin, p.xmax, p.ymax)
        if self.direction.y > 0.5:
            return Rect(p.xmin, p.ymin, p.xmax, min(p.ymin + depth, p.ymax))
        return Rect(p.xmin, max(p.ymax - depth, p.ymin), p.xmax, p.ymax)

    def to_dict(self) -> dict:
        return {
            "region": self.region.as_list(),
            "direction": [self.direction.x, self.direction.y],
            "speed": self.speed,
        }


@dataclass(frozen=True)
class Scenario:
    kind: str
    lanes: tuple[Lane, ...]
    n_peds: int
    robot_start: Vec2
    robot_goal: Vec2
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"kind must be one of {SCENARIO_KINDS}")
        if not (WORLD.contains(self.robot_start) and WORLD.contains(self.robot_goal)):
            raise ValueError("robot start and goal must lie inside the world")
        if self.n_peds < 0:
            raise ValueError("n_peds must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bounds": WORLD.as_list(),
            "lanes": [lane.to_dict() for lane in self.lanes],
            "n_peds": self.n_peds,
            "robot_start": [self.robot_start.x, self.robot_start.y],
            "robot_goal": [self.robot_goal.x, self.robot_goal.y],
            "seed": self.seed,
        }


@dataclass
class Crowd:
    """Simulator-internal walker state, one entry per pedestrian: ``ids``
    (int64), ``state`` rows x, y, vx, vy, ``heading`` (rad), ``speed``
    (m/s) and ``lane`` (lane index; -1 marks a chaotic walker steering by
    its own persistent heading). ``ped_step`` replaces these arrays rather
    than writing into them, so a frame taken by ``observations`` keeps its
    values."""

    ids: np.ndarray
    state: np.ndarray
    heading: np.ndarray
    speed: np.ndarray
    lane: np.ndarray

    def __len__(self) -> int:
        return self.ids.size

    def without(self, indices) -> "Crowd":
        """The crowd with the walkers at ``indices`` removed."""
        keep = np.ones(len(self), dtype=bool)
        keep[indices] = False
        return Crowd(
            self.ids[keep], self.state[keep], self.heading[keep], self.speed[keep], self.lane[keep]
        )


@dataclass(frozen=True)
class StepRecord:
    t: float
    robot_x: float
    robot_y: float
    robot_vx: float
    robot_vy: float
    peds: TrackLog  # the crowd at time t, a one-frame log


@dataclass
class EpisodeLog:
    scenario: Scenario
    planner: str
    max_t: float
    records: list[StepRecord]
    outcome: str  # one of OUTCOMES
    error: str | None = None


def generate_scenario(kind: str, n_peds: int | None = None, seed: int = 0) -> Scenario:
    """Deterministic scenario construction. n_peds defaults to a seeded draw
    from [25, 50]; the draw is made either way, so n_peds changes the crowd
    alone, not the robot's endpoints. freeze_wall sets its own pedestrian
    count (one per wall slot) and ignores n_peds."""
    rng = np.random.default_rng([seed, 0])

    if kind == "freeze_wall":
        y0 = 10.0 + rng.uniform(-2.0, 2.0)
        lanes = (Lane(Rect(9.75, 1.0, 10.25, 19.0), Vec2(0.0, 1.0), 0.0),)
        return Scenario(
            kind=kind,
            lanes=lanes,
            n_peds=len(_wall_ys()),
            robot_start=Vec2(4.0, y0),
            robot_goal=Vec2(16.0, y0),
            seed=seed,
        )

    drawn = int(rng.integers(N_PEDS_RANGE[0], N_PEDS_RANGE[1] + 1))
    n_peds = drawn if n_peds is None else n_peds
    if n_peds < 1:
        raise ValueError("n_peds must be at least 1")

    if kind == "chaotic":
        lanes: tuple[Lane, ...] = ()
        while True:
            sx, sy, gx, gy = rng.uniform(1.0, WORLD_SIZE - 1.0, size=4)
            if math.hypot(gx - sx, gy - sy) >= 12.0:
                break
        start, goal = Vec2(sx, sy), Vec2(gx, gy)
    elif kind == "single_flow":
        lanes = (Lane(Rect(0.0, 7.0, WORLD_SIZE, 13.0), Vec2(1.0, 0.0), LANE_SPEED),)
        start, goal = _endpoints(rng, CROSS_LANE_LOW, CROSS_LANE_HIGH)
    elif kind == "double_flow":
        lanes = (
            Lane(Rect(0.0, 6.0, WORLD_SIZE, 10.0), Vec2(1.0, 0.0), LANE_SPEED),
            Lane(Rect(0.0, 10.0, WORLD_SIZE, 14.0), Vec2(-1.0, 0.0), LANE_SPEED),
        )
        start, goal = _endpoints(rng, CROSS_LANE_LOW, CROSS_LANE_HIGH)
    elif kind == "intersection":
        lanes = (
            Lane(Rect(0.0, 7.0, WORLD_SIZE, 13.0), Vec2(1.0, 0.0), LANE_SPEED),
            Lane(Rect(7.0, 0.0, 13.0, WORLD_SIZE), Vec2(0.0, 1.0), LANE_SPEED),
        )
        start, goal = _endpoints(rng, Rect(1.5, 1.5, 5.5, 5.5), Rect(14.5, 14.5, 18.5, 18.5))
    else:
        raise ValueError(f"kind must be one of {SCENARIO_KINDS}")

    return Scenario(
        kind=kind,
        lanes=lanes,
        n_peds=n_peds,
        robot_start=start,
        robot_goal=goal,
        seed=seed,
    )


# Robot endpoints of the laned kinds: below the lanes and above them, so
# every episode has to cross the crowd.
CROSS_LANE_LOW = Rect(2.0, 1.5, WORLD_SIZE - 2.0, 4.5)
CROSS_LANE_HIGH = Rect(2.0, 15.5, WORLD_SIZE - 2.0, 18.5)


def _endpoints(rng, start_area: Rect, goal_area: Rect) -> tuple[Vec2, Vec2]:
    """A start in ``start_area`` and a goal in ``goal_area``, swapped on a
    coin flip."""
    start, goal = Vec2(*start_area.sample(rng)), Vec2(*goal_area.sample(rng))
    if rng.random() < 0.5:
        start, goal = goal, start
    return start, goal


def _wall_ys() -> np.ndarray:
    # 0.5 m spacing < 2 x collision_radius: no gap admits the baseline robot
    return np.arange(1.25, 19.0, 0.5)


def spawn_pedestrians(scenario: Scenario, rng: np.random.Generator) -> Crowd:
    rows = []  # (x, y, vx, vy, heading, speed, lane)
    if scenario.kind == "freeze_wall":
        rows = [(10.0, float(y), 0.0, 0.0, math.pi / 2, 0.0, 0) for y in _wall_ys()]
    elif not scenario.lanes:
        for _ in range(scenario.n_peds):
            x, y = CHAOTIC_AREA.sample(rng)
            h = rng.uniform(-math.pi, math.pi)
            v = CHAOTIC_SPEED
            rows.append((x, y, v * math.cos(h), v * math.sin(h), h, v, -1))
    else:
        for k in range(scenario.n_peds):
            lane_index = k % len(scenario.lanes)
            lane = scenario.lanes[lane_index]
            x, y = lane.placement_region().sample(rng)
            vel = lane.direction * lane.speed
            rows.append((x, y, vel.x, vel.y, lane.heading, lane.speed, lane_index))
    table = np.array(rows, dtype=float).reshape(len(rows), 7)
    return Crowd(
        ids=np.arange(len(rows), dtype=np.int64),
        state=table[:, :4].copy(),
        heading=table[:, 4].copy(),
        speed=table[:, 5].copy(),
        lane=table[:, 6].astype(np.int64),
    )


def _yields_to(ped_pos: Vec2, heading: float, robot_pos: Vec2) -> bool:
    d = ped_pos.distance_to(robot_pos)
    if d > YIELD_DIST:
        return False
    if d < EPS:
        return True
    cos_bearing = (
        math.cos(heading) * (robot_pos.x - ped_pos.x)
        + math.sin(heading) * (robot_pos.y - ped_pos.y)
    ) / d
    return cos_bearing >= math.cos(YIELD_HALF_ANGLE)


# Squared-distance prefilter of the yield rule: far above any rounding gap
# between x*x + y*y and hypot(x, y)**2, so every walker _yields_to could
# stop for passes it.
_YIELD_PREFILTER_SQ = (YIELD_DIST + 1e-6) ** 2


def ped_step(
    crowd: Crowd,
    lanes: tuple[Lane, ...],
    robot: Vec2 | None,
    rng: np.random.Generator,
    next_id,
) -> list[int]:
    """Advance the whole crowd by SIM_DT, walker by walker in index order.

    Laned pedestrians re-aim along their lane each step plus heading noise;
    chaotic ones random-walk their own heading. A pedestrian with the robot
    within YIELD_DIST and inside its heading cone stands still this step.
    Walking out of WORLD despawns the pedestrian and respawns it (fresh id
    via next_id) in its lane's upstream slab, or anywhere in CHAOTIC_AREA
    with a fresh heading. Returns the indices of the respawned walkers.

    The heading noise of the walkers left to step is drawn in one batch. A
    respawn draws its position (and a chaotic walker's heading) right after
    its own noise, so at the first respawn ``r`` the generator goes back to
    the batch start, redraws the noise of the walkers up to ``r``, makes
    r's respawn draws and steps the walkers after ``r`` with a fresh batch:
    the draws come out exactly as from one walker at a time.
    """
    n = len(crowd)
    base = crowd.heading.copy()
    speed = crowd.speed.copy()
    for k, lane in enumerate(lanes):
        on = crowd.lane == k
        base[on] = lane.heading
        speed[on] = lane.speed
    x, y = crowd.state[:, 0], crowd.state[:, 1]
    near = []  # walkers close enough to the robot that the yield rule may apply
    if robot is not None:
        d2 = (x - robot.x) ** 2 + (y - robot.y) ** 2
        near = np.flatnonzero(d2 <= _YIELD_PREFILTER_SQ).tolist()
    ids = crowd.ids
    heading = np.empty(n)
    state = np.empty((n, 4))
    respawned = []
    start = 0
    while start < n:
        saved = rng.bit_generator.state
        h = base[start:] + rng.normal(0.0, HEADING_NOISE_STD, n - start)
        v = speed[start:].copy()
        for i in near:
            if i < start:
                continue
            if _yields_to(Vec2(float(x[i]), float(y[i])), float(h[i - start]), robot):
                v[i - start] = 0.0
        vx = v * np.cos(h)
        vy = v * np.sin(h)
        px = x[start:] + vx * SIM_DT
        py = y[start:] + vy * SIM_DT
        heading[start:] = h
        state[start:, 0] = px
        state[start:, 1] = py
        state[start:, 2] = vx
        state[start:, 3] = vy
        inside = (WORLD.xmin <= px) & (px <= WORLD.xmax)
        inside &= (WORLD.ymin <= py) & (py <= WORLD.ymax)
        out = np.flatnonzero(~inside)
        if out.size == 0:
            break
        # Despawn/respawn: fresh id, upstream position, lane-aligned restart.
        r = start + int(out[0])
        rng.bit_generator.state = saved
        rng.normal(0.0, HEADING_NOISE_STD, r - start + 1)
        lane_index = int(crowd.lane[r])
        if lane_index >= 0:
            lane = lanes[lane_index]
            rx, ry = lane.spawn_region().sample(rng)
            rh = lane.heading
            restart_speed = lane.speed
        else:
            rx, ry = CHAOTIC_AREA.sample(rng)
            rh = float(rng.uniform(-math.pi, math.pi))
            restart_speed = float(crowd.speed[r])
        heading[r] = rh
        state[r] = (rx, ry, restart_speed * math.cos(rh), restart_speed * math.sin(rh))
        if ids is crowd.ids:
            ids = ids.copy()
        ids[r] = next_id()
        respawned.append(r)
        start = r + 1
    crowd.ids = ids
    crowd.state = state
    crowd.heading = heading
    return respawned


_FIRST_ROW = np.zeros(1, dtype=np.int64)  # the start row of a one-frame log


def observations(crowd: Crowd, t: float) -> TrackLog:
    """The crowd at time t as a one-frame log (sharing the crowd's arrays)."""
    return TrackLog((t,), _FIRST_ROW, crowd.ids, crowd.state)


def _swept_cells(frame: TrackLog, spec: GridSpec) -> set[tuple[int, int]]:
    """Cells holding a pedestrian now, half the horizon ahead or a whole
    horizon ahead, by the baseline's constant-velocity prediction."""
    points = predict_obstacles(frame.state, 2, PREDICT_HORIZON / 2)
    return spec.cells_of(points.reshape(-1, 2))


def _start_crowd(scenario: Scenario):
    """The crowd at t = 0, the noise generator that steps it and the
    source of respawn ids."""
    crowd = spawn_pedestrians(scenario, np.random.default_rng([scenario.seed, 1]))
    noise_rng = np.random.default_rng([scenario.seed, 2])
    return crowd, noise_rng, itertools.count(len(crowd)).__next__


DRAIN_CAP = 60.0  # s ceiling on the optional clear-out phase


def simulate_tracks(scenario: Scenario, duration: float, drain: bool = False) -> TrackLog:
    """Run the crowd alone (no robot) and return its track log, one frame per
    step including the initial state.

    With drain=True, once duration is up pedestrians who walk out are no
    longer replaced and recording continues until the scene is empty, like
    observing a group pass through and clear the space. Capped at DRAIN_CAP
    extra seconds so crowds that never leave (stationary walls, wanderers)
    still terminate.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    crowd, noise_rng, next_id = _start_crowd(scenario)
    frames = [observations(crowd, 0.0)]
    steps = round(duration / SIM_DT)
    cap = steps + round(DRAIN_CAP / SIM_DT)
    k = 0
    while k < steps or (drain and len(crowd) and k < cap):
        k += 1
        respawned = ped_step(crowd, scenario.lanes, None, noise_rng, next_id)
        if k > steps and respawned:
            crowd = crowd.without(respawned)  # exited during the clear-out: nobody walks in
        frames.append(observations(crowd, k * SIM_DT))
    return TrackLog.concat(frames)


def check_planner(planner: str) -> None:
    """Raise ValueError unless ``planner`` is one of PLANNERS."""
    if planner not in PLANNERS:
        raise ValueError(f"planner must be one of {PLANNERS}, got {planner!r}")


def run_episode(
    scenario: Scenario,
    planner: str,
    max_t: float = MAX_T,
    flow_params: FlowParams | None = None,
    cost_params: CostParams | None = None,
    cell_size: float = CELL_SIZE,
) -> EpisodeLog:
    """Execute one episode under the chosen planner.

    fipp: a receding-horizon replanner takes each step's frame and swept
    cells (``_swept_cells``), and the robot (holonomic point) tracks the
    next waypoint at up to V_MAX.
    tr: the rollout baseline drives unicycle kinematics directly.

    Ends with outcome "reached" (within GOAL_TOL of the goal), "frozen"
    (commanded speed zero for FREEZE_DURATION straight) or "timeout".
    Planner failures never abort the episode; they zero the command (and
    are noted on the log), so a dead planner shows up as frozen.
    """
    check_planner(planner)
    check_finite(max_t=max_t)
    if max_t <= 0:
        raise ValueError("max_t must be positive")
    spec = grid_covering(cell_size)
    flow_params = flow_params or FlowParams()
    cost_params = cost_params or CostParams()

    crowd, noise_rng, next_id = _start_crowd(scenario)

    pos = scenario.robot_start
    goal = scenario.robot_goal
    heading = math.atan2(goal.y - pos.y, goal.x - pos.x)

    field, replanner = FlowField(spec), Replanner(cost_params, flow_params)  # read by fipp alone

    records = [StepRecord(0.0, pos.x, pos.y, 0.0, 0.0, observations(crowd, 0.0))]
    outcome = "timeout"
    error: str | None = None
    zero_steps = 0
    freeze_steps = round(FREEZE_DURATION / SIM_DT)
    n_steps = round(max_t / SIM_DT)

    for k in range(1, n_steps + 1):
        t = k * SIM_DT
        frame = records[-1].peds
        if planner == "fipp":
            try:
                target = replanner.step(field, frame, pos, goal, _swept_cells(frame, spec))
            except (NoPathError, ValueError) as exc:
                target = pos
                if error is None:
                    error = f"{type(exc).__name__}: {exc}"
            delta = target - pos
            dist = delta.magnitude()
            cmd_speed = min(V_MAX, dist / SIM_DT)
            vel = delta.normalized() * cmd_speed
            pos = pos + vel * SIM_DT
        else:
            cmd = tr_step(pos, heading, frame.state, goal)
            cmd_speed = cmd[0]
            x, y, heading = step_unicycle(pos.x, pos.y, heading, cmd, SIM_DT)
            vel = Vec2((x - pos.x) / SIM_DT, (y - pos.y) / SIM_DT)
            pos = Vec2(x, y)
        ped_step(crowd, scenario.lanes, pos, noise_rng, next_id)
        records.append(StepRecord(t, pos.x, pos.y, vel.x, vel.y, observations(crowd, t)))
        if pos.distance_to(goal) <= GOAL_TOL:
            outcome = "reached"
            break
        zero_steps = zero_steps + 1 if cmd_speed <= EPS else 0
        if zero_steps >= freeze_steps:
            outcome = "frozen"
            break

    return EpisodeLog(
        scenario=scenario,
        planner=planner,
        max_t=max_t,
        records=records,
        outcome=outcome,
        error=error,
    )

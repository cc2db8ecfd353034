"""Flow-informed grid search.

Paths are found on the flow field's mesh grid with A*. Each edge pays a
geometric traversal cost plus a flow cost that is zero when the step moves
with the local crowd force and maximal when it moves against it, so with a
large flow weight the planner prefers routes that join the crowd's motion
even when they are longer. Cost bookkeeping keeps the traversal and flow
contributions separate so results can be audited.

Each :func:`plan` call builds one edge-cost table from the field: for every
move direction, the flow cost and the total cost of stepping into each cell
of the grid padded by one border cell. Only cells whose force has a
non-zero component get a flow cost computed; every other entry is the step
length. The search runs on flat indices of that padded grid; border and
blocked cells carry a g value no route can beat, so the inner loop needs no
bounds check and no set lookup. The result's cost split and the plan export
read the same table. The heuristic is a second table over the padded grid,
the distance of each cell's center to the goal's, kept for the next call:
the replans of one episode share their goal. It starts empty, and a search
computes an entry the first time it pushes the cell, so a query pays only
for the cells it reaches.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .flowfield import FlowField, FlowParams, GridSpec, TrackFrame, force_magnitude
from .geometry import EPS, Vec2, check_finite

Cell = tuple[int, int]

# Shrink the heuristic by a hair so floating-point rounding can never make it
# exceed the true remaining cost (which would break optimality).
_H_GUARD = 1.0 - 1e-12

# g value of border and blocked cells: no tentative cost is ever below it.
_WALL = -math.inf

# The 8 unit moves (di, dj): cardinal first, then diagonal.
_OFFSETS: list[Cell] = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]

# Unit vectors of the moves, as (moves, 1) columns.
_AX = np.array([[di / math.hypot(di, dj)] for di, dj in _OFFSETS])
_AY = np.array([[dj / math.hypot(di, dj)] for di, dj in _OFFSETS])

# Replanner timing: replan every REPLAN_PERIOD steps; retire a waypoint
# (and stop at the goal) within WAYPOINT_TOL meters.
REPLAN_PERIOD = 5
WAYPOINT_TOL = 0.3


class NoPathError(Exception):
    """No route exists between the requested endpoints."""


class OutOfBoundsError(ValueError):
    """A requested endpoint lies outside the grid."""


@dataclass(frozen=True)
class CostParams:
    """Weight of the flow (social) cost against the per-meter traversal
    cost, which weighs 1."""

    lambda_flow: float = 2.0

    def __post_init__(self) -> None:
        check_finite(lambda_flow=self.lambda_flow)
        if self.lambda_flow < 0:
            raise ValueError("lambda_flow must be nonnegative")


@dataclass
class PlanResult:
    """A grid path with its cost decomposition: ``cost_T`` is the accumulated
    traversal cost, ``cost_F`` the accumulated flow cost, ``cost_total``
    their sum (the quantity the search minimized). ``step_cost_T`` and
    ``step_cost_F`` hold, per path cell, the traversal and flow cost of the
    step onto it (0.0 for the start cell)."""

    path: list[Cell]
    waypoints: list[Vec2]
    cost_T: float
    cost_F: float
    cost_total: float
    expanded: int
    step_cost_T: list[float]
    step_cost_F: list[float]


def step_costs(cell_size: float) -> list[float]:
    """Traversal cost of each move of ``_OFFSETS`` on cells of side
    ``cell_size``: its length. Raises ValueError naming cell_size when the
    diagonal step overflows."""
    costs = [math.hypot(di * cell_size, dj * cell_size) for di, dj in _OFFSETS]
    if not all(map(math.isfinite, costs)):
        raise ValueError(f"cell_size {cell_size} gives a non-finite diagonal step cost")
    return costs


def _edge_table(
    field: FlowField, params: CostParams
) -> tuple[list[Cell], list[float], np.ndarray, np.ndarray]:
    """Edge costs of every move on the field's grid padded by one border
    cell of zero force.

    Returns the move offsets (di, dj), their traversal costs, and two
    ``(moves, cells)`` arrays: flow cost and total edge cost. Column
    k = (j + 1) * (width + 2) + (i + 1) holds the cost of moving into cell
    (i, j); this index orders cells like j * width + i. Raises ValueError
    naming cell_size when a step cost is not finite; else naming the first
    cell whose cost is not finite, and lambda_flow when that cell's force
    magnitude is finite.
    """
    spec = field.spec
    width, wp = spec.width, spec.width + 2
    steps = step_costs(spec.cell_size)
    # Only cells with a non-zero force component (NaN counts) can have a
    # flow cost: every other cell has |f| = 0 < EPS, so flow 0 in every
    # direction, and its total is the step cost.
    force = field.force.reshape(-1, 2)
    cells = np.flatnonzero(np.logical_or(force[:, 0], force[:, 1]))
    cell_force = force[cells]
    mag = force_magnitude(cell_force)
    # lambda * |f| * (1 - cos(theta)) / 2: 0 moving with the force, lambda * |f|
    # against it, computed in place in that order of operations.
    steps_column = np.array(steps)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cell_flow = _AX * cell_force[:, 0]
        cell_flow += _AY * cell_force[:, 1]
        cell_flow /= mag
        np.subtract(1.0, cell_flow, out=cell_flow)
        cell_flow *= params.lambda_flow * mag
        cell_flow /= 2.0
        cell_flow[:, mag < EPS] = 0.0
        # The step costs are finite, so only a force cell's total can fail.
        finite = np.isfinite(cell_flow + steps_column).all(axis=0)
    if not finite.all():
        j, i = divmod(int(cells[np.argmin(finite)]), width)
        f = tuple(field.force[j, i].tolist())
        norm = math.hypot(*f)
        # With a finite force magnitude, the weight is what overflowed.
        cause = (
            f"lambda_flow {params.lambda_flow} times the force magnitude {norm}"
            if math.isfinite(norm) else f"force {f}"
        )
        raise ValueError(f"{cause} at cell ({i}, {j}) gives a non-finite edge cost")
    flow = np.zeros((len(_OFFSETS), wp * (spec.height + 2)))
    flow[:, cells + 2 * (cells // width) + wp + 1] = cell_flow
    return _OFFSETS, steps, flow, steps_column + flow


@functools.lru_cache(maxsize=1)
def _heuristic(spec: GridSpec, goal_cell: Cell) -> tuple[list, list[float], list[float]]:
    """The A* heuristic towards ``goal_cell`` on ``spec``'s grid padded by
    one border cell: for padded flat index k = j * (width + 2) + i, the
    straight-line distance between the centers of cell k and of the goal
    cell, ``math.hypot(xs[k], dys[j]) * _H_GUARD``, where ``xs[k]`` is
    column i's x offset and ``dys[j]`` row j's y offset.

    Returns the table, which starts as None everywhere, with ``xs`` and
    ``dys``. :func:`plan` fills an entry the first time it pushes the cell,
    so one table serves, and grows over, every replan towards the same
    goal."""
    gx, gy = spec.cell_center(*goal_cell).as_tuple()
    ox, oy, cs = spec.origin.x, spec.origin.y, spec.cell_size
    dxs = [ox + (i + 0.5) * cs - gx for i in range(-1, spec.width + 1)]
    dys = [oy + (j + 0.5) * cs - gy for j in range(-1, spec.height + 1)]
    return [None] * (len(dxs) * len(dys)), dxs * len(dys), dys


def plan(
    field: FlowField,
    start: Vec2,
    goal: Vec2,
    params: CostParams,
    blocked: frozenset[Cell] | set[Cell] = frozenset(),
) -> PlanResult:
    """A* from the cell containing ``start`` to the cell containing ``goal``.

    Ties are broken deterministically on (f, h, flat cell index). Closed
    cells are reopened if a strictly cheaper route to them appears, so the
    returned cost is the exact minimum over all grid paths. Blocked cells
    outside the grid are ignored.

    Raises OutOfBoundsError for endpoints off the grid, ValueError for
    blocked endpoints or a field whose forces give a non-finite edge cost,
    and NoPathError when the goal is unreachable.
    """
    spec = field.spec
    if not spec.contains(start) or not spec.contains(goal):
        raise OutOfBoundsError("start and goal must lie inside the grid")
    start_cell = spec.cell_of(start)
    goal_cell = spec.cell_of(goal)
    if start_cell in blocked or goal_cell in blocked:
        raise ValueError("start and goal cells must not be blocked")

    width, height = spec.width, spec.height
    wp = width + 2
    n = wp * (height + 2)
    offsets, steps, flow, total = _edge_table(field, params)
    # Per move, the flat-index offset and the cost row; memoryview rows hand
    # out Python floats without converting the table.
    (o0, c0), (o1, c1), (o2, c2), (o3, c3), (o4, c4), (o5, c5), (o6, c6), (o7, c7) = [
        (dj * wp + di, memoryview(costs)) for (di, dj), costs in zip(offsets, total)
    ]

    # g over the padded grid: interior cells start unreached; border and
    # blocked cells hold _WALL, so the loop needs no bounds or blocked check.
    g = [_WALL] * wp + ([_WALL] + [math.inf] * width + [_WALL]) * height + [_WALL] * wp
    for i, j in blocked:
        if 0 <= i < width and 0 <= j < height:
            g[(j + 1) * wp + i + 1] = _WALL
    parent = [-1] * n

    hs, xs, dys = _heuristic(spec, goal_cell)
    heappush, heappop, hypot, guard = heapq.heappush, heapq.heappop, math.hypot, _H_GUARD

    k_start = (start_cell[1] + 1) * wp + start_cell[0] + 1
    k_goal = (goal_cell[1] + 1) * wp + goal_cell[0] + 1
    g[k_start] = 0.0
    h0 = hs[k_start]
    if h0 is None:
        h0 = hs[k_start] = hypot(xs[k_start], dys[k_start // wp]) * guard
    # Heap entries carry the g value they were pushed with; an entry whose
    # stored g exceeds the cell's current g has been superseded. This makes
    # re-expansion after an improvement (reopening) automatic.
    open_heap: list[tuple[float, float, int, float]] = [(h0, h0, k_start, 0.0)]
    expanded = 0

    while open_heap:
        _, _, k, g_k = heappop(open_heap)
        if g_k > g[k]:
            continue  # stale entry
        expanded += 1
        if k == k_goal:
            break
        # The 8 moves are written out: a loop over them makes a plan call
        # about 6 % slower.
        nk = k + o0
        tentative = g_k + c0[nk]
        if tentative < g[nk]:
            g[nk] = tentative
            parent[nk] = k
            nh = hs[nk]
            if nh is None:
                nh = hs[nk] = hypot(xs[nk], dys[nk // wp]) * guard
            heappush(open_heap, (tentative + nh, nh, nk, tentative))
        nk = k + o1
        tentative = g_k + c1[nk]
        if tentative < g[nk]:
            g[nk] = tentative
            parent[nk] = k
            nh = hs[nk]
            if nh is None:
                nh = hs[nk] = hypot(xs[nk], dys[nk // wp]) * guard
            heappush(open_heap, (tentative + nh, nh, nk, tentative))
        nk = k + o2
        tentative = g_k + c2[nk]
        if tentative < g[nk]:
            g[nk] = tentative
            parent[nk] = k
            nh = hs[nk]
            if nh is None:
                nh = hs[nk] = hypot(xs[nk], dys[nk // wp]) * guard
            heappush(open_heap, (tentative + nh, nh, nk, tentative))
        nk = k + o3
        tentative = g_k + c3[nk]
        if tentative < g[nk]:
            g[nk] = tentative
            parent[nk] = k
            nh = hs[nk]
            if nh is None:
                nh = hs[nk] = hypot(xs[nk], dys[nk // wp]) * guard
            heappush(open_heap, (tentative + nh, nh, nk, tentative))
        nk = k + o4
        tentative = g_k + c4[nk]
        if tentative < g[nk]:
            g[nk] = tentative
            parent[nk] = k
            nh = hs[nk]
            if nh is None:
                nh = hs[nk] = hypot(xs[nk], dys[nk // wp]) * guard
            heappush(open_heap, (tentative + nh, nh, nk, tentative))
        nk = k + o5
        tentative = g_k + c5[nk]
        if tentative < g[nk]:
            g[nk] = tentative
            parent[nk] = k
            nh = hs[nk]
            if nh is None:
                nh = hs[nk] = hypot(xs[nk], dys[nk // wp]) * guard
            heappush(open_heap, (tentative + nh, nh, nk, tentative))
        nk = k + o6
        tentative = g_k + c6[nk]
        if tentative < g[nk]:
            g[nk] = tentative
            parent[nk] = k
            nh = hs[nk]
            if nh is None:
                nh = hs[nk] = hypot(xs[nk], dys[nk // wp]) * guard
            heappush(open_heap, (tentative + nh, nh, nk, tentative))
        nk = k + o7
        tentative = g_k + c7[nk]
        if tentative < g[nk]:
            g[nk] = tentative
            parent[nk] = k
            nh = hs[nk]
            if nh is None:
                nh = hs[nk] = hypot(xs[nk], dys[nk // wp]) * guard
            heappush(open_heap, (tentative + nh, nh, nk, tentative))
    else:
        raise NoPathError(f"no path from cell {start_cell} to cell {goal_cell}")

    # Walk the parent links back from the goal and sum the table entries of
    # each step, in path order.
    ks = [k_goal]
    while ks[-1] != k_start:
        ks.append(parent[ks[-1]])
    ks.reverse()
    direction = {dj * wp + di: d for d, (di, dj) in enumerate(offsets)}
    step_cost_T = [0.0]
    step_cost_F = [0.0]
    cost_T = 0.0
    cost_F = 0.0
    for a, b in zip(ks, ks[1:]):
        d = direction[b - a]
        step_cost_T.append(steps[d])
        step_cost_F.append(float(flow[d, b]))
        cost_T += step_cost_T[-1]
        cost_F += step_cost_F[-1]
    path = [(k % wp - 1, k // wp - 1) for k in ks]
    return PlanResult(
        path=path,
        waypoints=[spec.cell_center(*c) for c in path],
        cost_T=cost_T,
        cost_F=cost_F,
        cost_total=g_k,
        expanded=expanded,
        step_cost_T=step_cost_T,
        step_cost_F=step_cost_F,
    )


class Replanner:
    """Receding-horizon wrapper around :func:`plan`.

    ``step`` queues each step's crowd frame and returns the waypoint the
    robot should head for. It replans every REPLAN_PERIOD calls, when one of
    the next waypoints becomes blocked, or when no plan exists yet: it
    deposits the queued frames, updates the field once and plans around the
    swept cells or, if they seal every route, around the cells people stand
    in now (unless the current path is fresh and clear of them). Waypoints
    are retired once the robot comes within WAYPOINT_TOL of them; the final
    waypoint is the exact goal position.
    """

    def __init__(self, params: CostParams, flow_params: FlowParams):
        self.params = params
        self.flow_params = flow_params
        self._waypoints: list[Vec2] = []
        self._frames: list[TrackFrame] = []
        self._calls_since_plan = 0
        self.last_plan: PlanResult | None = None

    def step(
        self, field: FlowField, frame: TrackFrame, robot_pos: Vec2, goal: Vec2, swept: set[Cell]
    ) -> Vec2:
        self._frames.append(frame)
        if robot_pos.distance_to(goal) <= WAYPOINT_TOL:
            self._waypoints = []
            return goal
        spec = field.spec
        free = {spec.cell_of(robot_pos), spec.cell_of(goal)}
        blocked = swept - free
        if self._needs_replan(spec, blocked):
            field.deposit_frame(*self._frames)
            self._frames.clear()
            field.update_field(self.flow_params)
            try:
                self._plan(field, robot_pos, goal, blocked)
            except NoPathError:
                occupied = spec.cells_of(frame.state[:, :2]) - free
                if self._needs_replan(spec, occupied):
                    self._plan(field, robot_pos, goal, occupied)
        self._calls_since_plan += 1
        while len(self._waypoints) > 1 and robot_pos.distance_to(self._waypoints[0]) <= WAYPOINT_TOL:
            self._waypoints.pop(0)
        return self._waypoints[0]

    def _plan(self, field: FlowField, robot_pos: Vec2, goal: Vec2, blocked: set[Cell]) -> None:
        self.last_plan = plan(field, robot_pos, goal, self.params, blocked)
        # The first waypoint is the robot's own cell center; the last
        # becomes the exact goal.
        self._waypoints = self.last_plan.waypoints[1:-1] + [goal]
        self._calls_since_plan = 0

    def _needs_replan(self, spec: GridSpec, blocked: set[Cell]) -> bool:
        if not self._waypoints:
            return True
        if self._calls_since_plan >= REPLAN_PERIOD:
            return True
        # React early if anything now stands on the next few waypoints.
        return any(spec.cell_of(w) in blocked for w in self._waypoints[:3])

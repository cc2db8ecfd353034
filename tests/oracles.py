"""Hand-rolled reference implementations the tests cross-check against.

Everything here is written with plain tuples, loops and scalar math and
shares no code with the package internals, so a bug on either side cannot
hide behind common plumbing. The force functions mirror the published
formulas directly and ``field_force_reference`` applies them cell by cell;
the edge cost is the closed form, and the path oracles a textbook Dijkstra
and a textbook A* with a full heuristic table and dict-based g;
the rollout oracles integrate the unicycle arc on their own and score it,
and the clearance oracle takes every distance with its own square root.
The deposit and the pedestrian step are the per-observation and
per-walker loops the array code replaced, and the track-log and field
readers and the field writer the per-line and per-cell code the columnar
ones replaced; the track-log and episode-step writers the per-row f-string
and the per-step dict through ``json.dumps`` that the shared row formatter
replaced. Objects from the package (a
field, cost params, or the tests' namespace of the rollout constants) are
only read through their attributes; nothing is imported from it.
"""

from __future__ import annotations

import heapq
import json
import math

Point = tuple[float, float]


def friction_reference(origin: Point, neighbors: list[Point]) -> float:
    """mu = 1 - sum_j d_j / (n * max_j d_j), clamped to [0, 1).

    No neighbors or all neighbors coincident with the origin give 0.
    """
    if not neighbors:
        return 0.0
    dists = [math.hypot(p[0] - origin[0], p[1] - origin[1]) for p in neighbors]
    d_max = max(dists)
    if d_max <= 0.0:
        return 0.0
    return max(0.0, 1.0 - sum(dists) / (len(dists) * d_max))


def average_velocity_reference(velocities: list[Point]) -> Point:
    if not velocities:
        return (0.0, 0.0)
    n = len(velocities)
    return (sum(v[0] for v in velocities) / n, sum(v[1] for v in velocities) / n)


def relative_velocity_reference(
    center: Point, neighbors: list[tuple[Point, Point]], h: float
) -> Point:
    """Mean of the velocities of neighbors within distance h."""
    picked = [
        vel
        for pos, vel in neighbors
        if math.hypot(pos[0] - center[0], pos[1] - center[1]) <= h
    ]
    if not picked:
        return (0.0, 0.0)
    sx = sum(v[0] for v in picked)
    sy = sum(v[1] for v in picked)
    return (sx / len(picked), sy / len(picked))


def alpha_reference(v_rel: Point, v_avg: Point) -> float:
    denom = math.hypot(v_avg[0], v_avg[1])
    if denom < 1e-9:
        return 0.0
    return math.hypot(v_rel[0], v_rel[1]) / denom


def force_reference(v_i: Point, v_rel: Point, mu: float, alpha: float, xi: float) -> Point:
    """-mu*v_i + alpha*(v_rel - v_i) + xi*v_i."""
    inf_x = alpha * (v_rel[0] - v_i[0])
    inf_y = alpha * (v_rel[1] - v_i[1])
    return (-mu * v_i[0] + inf_x + xi * v_i[0], -mu * v_i[1] + inf_y + xi * v_i[1])


def field_force_reference(
    cell_size: float,
    occupancy: list[list[int]],
    velocity: list[list[Point]],
    v_avg: Point,
    h: float,
    xi: float,
) -> list[list[tuple[float, Point]]]:
    """(mu, force) of every cell of a grid, indexed [j][i] like the inputs.

    For each cell, every other cell whose center lies within h is a
    neighbor: occupied ones (occupancy > 0) enter the friction, moving ones
    (nonzero velocity) the relative velocity. v_avg is the average velocity
    of the latest frame.
    """
    height, width = len(occupancy), len(occupancy[0])
    centers = [
        [((i + 0.5) * cell_size, (j + 0.5) * cell_size) for i in range(width)]
        for j in range(height)
    ]
    out = []
    for j in range(height):
        row = []
        for i in range(width):
            center = centers[j][i]
            occupied = []
            moving = []
            for jj in range(height):
                for ii in range(width):
                    other = centers[jj][ii]
                    if (ii, jj) == (i, j):
                        continue
                    if math.hypot(other[0] - center[0], other[1] - center[1]) > h:
                        continue
                    if occupancy[jj][ii] > 0:
                        occupied.append(other)
                    vel = velocity[jj][ii]
                    if vel[0] * vel[0] + vel[1] * vel[1] > 0.0:
                        moving.append((other, vel))
            mu = friction_reference(center, occupied)
            v_rel = relative_velocity_reference(center, moving, h)
            alpha = alpha_reference(v_rel, v_avg)
            row.append((mu, force_reference(velocity[j][i], v_rel, mu, alpha, xi)))
        out.append(row)
    return out


def deposit_reference(origin, cell_size, width, height, velocity, rows, decay):
    """One frame blended into a grid of velocity estimates, observation by
    observation: rows (id, x, y, vx, vy) are taken in id order, a row
    outside [origin, origin + size] on either axis is dropped, the rest land
    in the cell floor((p - origin) / cell_size) (clamped to the grid), are
    summed per cell and averaged, and each visited cell becomes
    (1 - decay) * old + decay * mean. velocity is a [j][i] grid of (vx, vy).
    Returns (new velocity grid, occupancy grid, dropped count)."""
    ox, oy = origin
    sums = {}
    dropped = 0
    for _, x, y, vx, vy in sorted(rows, key=lambda r: r[0]):
        if not (ox <= x <= ox + width * cell_size and oy <= y <= oy + height * cell_size):
            dropped += 1
            continue
        i = min(max(int(math.floor((x - ox) / cell_size)), 0), width - 1)
        j = min(max(int(math.floor((y - oy) / cell_size)), 0), height - 1)
        sx, sy, n = sums.get((i, j), (0.0, 0.0, 0))
        sums[(i, j)] = (sx + vx, sy + vy, n + 1)
    out = [list(row) for row in velocity]
    occupancy = [[0] * width for _ in range(height)]
    for (i, j), (sx, sy, n) in sums.items():
        occupancy[j][i] = n
        old_x, old_y = out[j][i]
        out[j][i] = (
            (1.0 - decay) * old_x + decay * (sx / n),
            (1.0 - decay) * old_y + decay * (sy / n),
        )
    return out, occupancy, dropped


# The pedestrian model's constants: heading noise per step (rad), the
# distance within which a walker stops for the robot (m) and the half
# angle of the cone it looks into (rad).
HEADING_NOISE_STD = 0.1
YIELD_DIST = 0.5
YIELD_HALF_ANGLE = math.pi / 3


def _yields_reference(x, y, heading, robot) -> bool:
    d = math.hypot(x - robot[0], y - robot[1])
    if d > YIELD_DIST:
        return False
    if d < 1e-9:
        return True
    cos_bearing = (math.cos(heading) * (robot[0] - x) + math.sin(heading) * (robot[1] - y)) / d
    return cos_bearing >= math.cos(YIELD_HALF_ANGLE)


def ped_step_reference(walker, lane, robot, dt, rng, bounds, next_id) -> None:
    """Advance one walker by dt, drawing from rng one scalar at a time.

    walker: dict with id, x, y, vx, vy, heading, speed, updated in place.
    lane: None for a chaotic walker, else (direction (dx, dy), speed,
    spawn rect). robot: None or (x, y). Rects are (xmin, ymin, xmax, ymax).

    Draws one heading noise; a laned walker aims along its lane at the lane
    speed, a chaotic one turns its own heading at its own speed. With the
    robot within YIELD_DIST and inside the cone it stands still. Leaving
    bounds it respawns: a laned walker uniformly in the spawn rect heading
    along the lane, a chaotic one in bounds shrunk by 0.5 m with a uniform
    heading, with a fresh id from next_id.
    """
    noise = float(rng.normal(0.0, HEADING_NOISE_STD))
    if lane is not None:
        (dx, dy), walk_speed, spawn = lane
        heading = math.atan2(dy, dx) + noise
    else:
        walk_speed = walker["speed"]
        heading = walker["heading"] + noise
    walker["heading"] = heading
    speed = walk_speed
    if robot is not None and _yields_reference(walker["x"], walker["y"], heading, robot):
        speed = 0.0
    vx, vy = speed * math.cos(heading), speed * math.sin(heading)
    x, y = walker["x"] + vx * dt, walker["y"] + vy * dt
    xmin, ymin, xmax, ymax = bounds
    if xmin <= x <= xmax and ymin <= y <= ymax:
        walker.update(x=x, y=y, vx=vx, vy=vy)
        return
    if lane is not None:
        sx0, sy0, sx1, sy1 = spawn
        x = float(rng.uniform(sx0, sx1))
        y = float(rng.uniform(sy0, sy1))
        heading = math.atan2(dy, dx)
    else:
        x = float(rng.uniform(xmin + 0.5, xmax - 0.5))
        y = float(rng.uniform(ymin + 0.5, ymax - 0.5))
        heading = float(rng.uniform(-math.pi, math.pi))
    walker["id"] = next_id()
    walker.update(
        x=x,
        y=y,
        heading=heading,
        vx=walk_speed * math.cos(heading),
        vy=walk_speed * math.sin(heading),
    )


def flow_cost_reference(a, b, field, params) -> float:
    """Flow cost of the step from cell a to the 8-connected neighbour b:
    lambda * |f| * (1 - cos(theta)) / 2, where f is the force stored at b
    and theta the angle between f and the step. Forces with |f| < 1e-9 cost
    nothing in any direction."""
    di, dj = b[0] - a[0], b[1] - a[1]
    if max(abs(di), abs(dj)) != 1:
        raise ValueError(f"cells {a} and {b} are not adjacent")
    fx, fy = float(field.force[b[1], b[0], 0]), float(field.force[b[1], b[0], 1])
    norm = math.hypot(di, dj)
    ax, ay = di / norm, dj / norm
    mag = math.hypot(fx, fy)
    if mag < 1e-9:
        return 0.0
    cos_theta = (ax * fx + ay * fy) / mag
    return params.lambda_flow * mag * (1.0 - cos_theta) / 2.0


def edge_cost_reference(a, b, field, params) -> float:
    """Cost of the step from cell a to the 8-connected neighbour b: step
    length + ``flow_cost_reference``."""
    flow = flow_cost_reference(a, b, field, params)
    cs = field.spec.cell_size
    return math.hypot((b[0] - a[0]) * cs, (b[1] - a[1]) * cs) + flow


def rollout_reference(pose: tuple[float, float, float], cmd: Point, params) -> list[Point]:
    """Positions of a unicycle at pose (x, y, heading) driving cmd =
    (speed, turn rate) for params.n_steps steps of params.sim_dt, start
    included. A turning step moves along the chord of its arc: length
    2 (v / w) sin(w dt / 2), in the direction of the mid-step heading."""
    x, y, th = pose
    v, w = cmd
    dt = params.sim_dt
    points = [(x, y)]
    for _ in range(params.n_steps):
        if abs(w) < 1e-9:
            chord = v * dt
        else:
            chord = 2.0 * (v / w) * math.sin(w * dt / 2.0)
        mid = th + w * dt / 2.0
        x, y, th = x + chord * math.cos(mid), y + chord * math.sin(mid), th + w * dt
        points.append((x, y))
    return points


def rollout_score_reference(
    points: list[Point], peds: list[tuple[Point, Point]], goal: Point, params
) -> float:
    """goal_weight * (end distance to goal) - clearance_weight * min(clearance,
    clearance_cap), where clearance is the least distance between the
    rollout's k-th point and a pedestrian (position, velocity) walked on for
    k steps. inf when the clearance is below collision_radius."""
    end = points[-1]
    clearance = params.clearance_cap
    if peds:
        clearance = min(
            math.hypot(p[0] - (pos[0] + k * params.sim_dt * vel[0]),
                       p[1] - (pos[1] + k * params.sim_dt * vel[1]))
            for k, p in enumerate(points)
            for pos, vel in peds
        )
        if clearance < params.collision_radius:
            return math.inf
    goal_dist = math.hypot(end[0] - goal[0], end[1] - goal[1])
    return params.goal_weight * goal_dist - params.clearance_weight * min(
        clearance, params.clearance_cap
    )


def clearance_reference(trajs, obstacles) -> list[float]:
    """Per rollout, the least distance math.sqrt(dx*dx + dy*dy) between
    its k-th point trajs[c][k] and the k-th predicted position
    obstacles[k][j] of each pedestrian j, both (x, y). inf with no
    pedestrian; NaN once any distance is NaN."""
    out = []
    for points in trajs:
        least = math.inf
        for k, (x, y) in enumerate(points):
            for ox, oy in obstacles[k]:
                dx, dy = x - ox, y - oy
                d = math.sqrt(dx * dx + dy * dy)
                if d < least or math.isnan(d):
                    least = d
        out.append(least)
    return out


def dijkstra_cost(field, start_cell, goal_cell, params, edge_cost_fn) -> float:
    """Minimal path cost over the 8-connected grid by plain Dijkstra (no
    heuristic, no reopening), using the supplied per-edge cost function.
    Returns inf when the goal is unreachable."""
    spec = field.spec
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
    dist = {start_cell: 0.0}
    heap = [(0.0, start_cell)]
    done = set()
    while heap:
        d, cell = heapq.heappop(heap)
        if cell in done:
            continue
        done.add(cell)
        if cell == goal_cell:
            return d
        for di, dj in offsets:
            nxt = (cell[0] + di, cell[1] + dj)
            if not (0 <= nxt[0] < spec.width and 0 <= nxt[1] < spec.height):
                continue
            nd = d + edge_cost_fn(cell, nxt, field, params)
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return math.inf


def astar_reference(field, start_cell, goal_cell, params, blocked=frozenset()):
    """A* from start_cell to goal_cell over the 8-connected grid, as the
    textbook writes it: a heuristic table of every cell built up front (the
    distance between cell centers, ox + (i + 0.5) * cs - gx on x and alike
    on y, through math.hypot, times 1 - 1e-12), g and parent in dicts, edge
    costs from edge_cost_reference, heap entries (f, h, row-major index, g)
    so ties break on (f, h, index), stale entries skipped, and a cell
    reopened whenever a strictly cheaper route to it appears. Blocked cells
    are never entered. Returns (path, expanded, cost_T, cost_F, cost_total,
    step_cost_T, step_cost_F), each step's costs being its length and its
    flow cost (0.0 for the start), or None when the goal is unreachable."""
    spec = field.spec
    ox, oy, cs = spec.origin.x, spec.origin.y, spec.cell_size
    width, height = spec.width, spec.height
    gx, gy = ox + (goal_cell[0] + 0.5) * cs, oy + (goal_cell[1] + 0.5) * cs
    h = {
        (i, j): math.hypot(ox + (i + 0.5) * cs - gx, oy + (j + 0.5) * cs - gy) * (1.0 - 1e-12)
        for j in range(height)
        for i in range(width)
    }
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
    g = {start_cell: 0.0}
    parent = {}
    start_h = h[start_cell]
    heap = [(start_h, start_h, start_cell[1] * width + start_cell[0], 0.0)]
    expanded = 0
    while heap:
        _, _, index, g_cell = heapq.heappop(heap)
        cell = (index % width, index // width)
        if g_cell > g[cell]:
            continue
        expanded += 1
        if cell == goal_cell:
            break
        for di, dj in offsets:
            nxt = (cell[0] + di, cell[1] + dj)
            if not (0 <= nxt[0] < width and 0 <= nxt[1] < height) or nxt in blocked:
                continue
            tentative = g_cell + edge_cost_reference(cell, nxt, field, params)
            if tentative < g.get(nxt, math.inf):
                g[nxt] = tentative
                parent[nxt] = cell
                index = nxt[1] * width + nxt[0]
                heapq.heappush(heap, (tentative + h[nxt], h[nxt], index, tentative))
    else:
        return None
    path = [goal_cell]
    while path[-1] != start_cell:
        path.append(parent[path[-1]])
    path.reverse()
    step_cost_T, step_cost_F = [0.0], [0.0]
    cost_T = cost_F = 0.0
    for a, b in zip(path, path[1:]):
        step_cost_T.append(math.hypot((b[0] - a[0]) * cs, (b[1] - a[1]) * cs))
        step_cost_F.append(flow_cost_reference(a, b, field, params))
        cost_T += step_cost_T[-1]
        cost_F += step_cost_F[-1]
    return path, expanded, cost_T, cost_F, g[goal_cell], step_cost_T, step_cost_F


# ---------------------------------------------------------------------------
# File formats: the per-line readers and the per-cell field writer.
# ---------------------------------------------------------------------------

INT64_RANGE = (-(2**63), 2**63)


def parse_number(text: str, kind):
    """``text`` read as the file readers' number grammar reads it: Python's
    ``float`` or ``int`` of the field stripped of whitespace, where the
    field is ASCII without '_' digit separators and an int fits int64.
    Raises ValueError otherwise."""
    core = text.strip()
    if not core.isascii() or "_" in core:
        raise ValueError(f"not an ASCII number without separators: {text!r}")
    value = kind(core)
    if kind is int and not INT64_RANGE[0] <= value < INT64_RANGE[1]:
        raise ValueError(f"outside int64: {text!r}")
    return value


def read_track_log_reference(path: str, v_max: float):
    """A track log as [(t, [(id, x, y, vx, vy), ...]), ...], one entry per
    run of equal timestamps, or ("error", line_no) for the first line that
    is not six fields, has a field outside the number grammar, a non-finite
    number, a speed over ``v_max``, a timestamp below the previous one, or
    an id already seen at this timestamp."""
    frames: list = []
    current_t = None
    seen: set = set()
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 6:
                return ("error", line_no)
            try:
                t = parse_number(parts[0], float)
                ped_id = parse_number(parts[1], int)
                x, y, vx, vy = (parse_number(p, float) for p in parts[2:])
            except ValueError:
                return ("error", line_no)
            if not all(math.isfinite(v) for v in (t, x, y, vx, vy)):
                return ("error", line_no)
            if math.hypot(vx, vy) > v_max:
                return ("error", line_no)
            if current_t is not None and t < current_t:
                return ("error", line_no)
            if current_t is None or t != current_t:
                frames.append((t, []))
                current_t = t
                seen = set()
            if ped_id in seen:
                return ("error", line_no)
            seen.add(ped_id)
            frames[-1][1].append((ped_id, x, y, vx, vy))
    return frames


def read_field_reference(path: str):
    """A field export as ((origin_x, origin_y, cell_size, width, height),
    [(fx, fy), ...] in row-major cell order); ("error", line_no) for the
    first line that is a malformed, invalid or second grid meta line, a
    data row before the meta line, not seven fields, outside the number
    grammar in i, j, fx or fy, a non-finite force, a cell outside the grid
    or a cell already listed; ("error", None) without a meta line; and
    ("missing", (i, j)) naming the first cell in row-major order that no
    row lists."""
    grid = None
    forces: dict = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                if not line.startswith("# grid"):
                    continue
                parts = line.split()
                if grid is not None or len(parts) != 7:
                    return ("error", line_no)
                try:
                    ox, oy, cs = float(parts[2]), float(parts[3]), float(parts[4])
                    w, h = int(parts[5]), int(parts[6])
                except ValueError:
                    return ("error", line_no)
                if not (math.isfinite(ox) and math.isfinite(oy) and math.isfinite(cs)):
                    return ("error", line_no)
                if cs <= 0 or w < 1 or h < 1:
                    return ("error", line_no)
                grid = (ox, oy, cs, w, h)
                continue
            if grid is None:
                return ("error", line_no)
            parts = line.split(",")
            if len(parts) != 7:
                return ("error", line_no)
            try:
                i, j = parse_number(parts[0], int), parse_number(parts[1], int)
                fx, fy = parse_number(parts[4], float), parse_number(parts[5], float)
            except ValueError:
                return ("error", line_no)
            if not (math.isfinite(fx) and math.isfinite(fy)):
                return ("error", line_no)
            if not (0 <= i < grid[3] and 0 <= j < grid[4]):
                return ("error", line_no)
            if (i, j) in forces:
                return ("error", line_no)
            forces[(i, j)] = (fx, fy)
    if grid is None:
        return ("error", None)
    width = grid[3]
    cells = sorted((j, i) for i, j in forces)
    for p, (j, i) in enumerate(cells):
        if (j, i) != divmod(p, width):
            return ("missing", (p % width, p // width))
    if len(cells) < width * grid[4]:
        return ("missing", (len(cells) % width, len(cells) // width))
    return grid, [forces[(i, j)] for j, i in cells]


def field_export_reference(field) -> str:
    """The text of a field export written one cell at a time: the meta
    line, the header, then i,j,cx,cy,fx,fy,|f| per cell in row-major order
    with repr-formatted floats."""
    spec = field.spec
    ox, oy, cs = spec.origin.x, spec.origin.y, spec.cell_size
    lines = [f"# grid {ox!r} {oy!r} {cs!r} {spec.width} {spec.height}", "# i,j,cx,cy,fx,fy,mag"]
    for j in range(spec.height):
        for i in range(spec.width):
            fx, fy = float(field.force[j, i, 0]), float(field.force[j, i, 1])
            cx, cy = ox + (i + 0.5) * cs, oy + (j + 0.5) * cs
            lines.append(f"{i},{j},{cx!r},{cy!r},{fx!r},{fy!r},{math.hypot(fx, fy)!r}")
    return "\n".join(lines) + "\n"


def track_log_reference(frames) -> str:
    """The text of a track log written one row at a time: the header, then
    t,id,x,y,vx,vy per pedestrian of each frame with repr-formatted
    floats."""
    lines = ["# t,id,x,y,vx,vy"]
    for frame in frames:
        t = repr(float(frame.t))
        for ped_id, (x, y, vx, vy) in zip(frame.ids.tolist(), frame.state.tolist()):
            lines.append(f"{t},{ped_id},{x!r},{y!r},{vx!r},{vy!r}")
    return "\n".join(lines) + "\n"


def episode_step_line_reference(rec) -> str:
    """One step line of an episode log: the step's dict through
    ``json.dumps`` with sorted keys and compact separators."""
    peds = rec.peds
    return json.dumps(
        {
            "t": rec.t,
            "robot": [rec.robot_x, rec.robot_y, rec.robot_vx, rec.robot_vy],
            "peds": [[ped_id, *row] for ped_id, row in zip(peds.ids.tolist(), peds.state.tolist())],
        },
        sort_keys=True,
        separators=(",", ":"),
    )

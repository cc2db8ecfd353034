"""Crowd flow-field extraction on a 2D mesh grid.

Pedestrian observations (position + velocity per tracked person per frame)
are deposited onto the nearest grid cell, where they maintain an
exponentially smoothed velocity estimate. A per-cell force is then computed
from three ingredients: a crowd-friction term derived from how dispersed the
occupied neighboring cells are, a self-propulsion term proportional to the
cell velocity, and a neighbor-influence term that couples a cell to the
velocities of cells within an influence radius ``h``. The resulting vector
field predicts the direction and magnitude of crowd motion even in cells no
pedestrian has visited yet, and test particles can be advected through it to
check the field against recorded tracks.

The force model exists only in grid form: ``FlowField.update_field``
computes friction, relative velocity, interaction coefficient and force for
every cell at once. The cell state goes into four stacked planes (occupied,
moving, and a moving cell's x and y velocity), zero-padded by the influence
reach, and each neighbor offset within ``h`` adds one slice view of the
stack to the per-cell sums, so no neighbor plane is copied. Its independent
per-cell reference is written out in plain loops in the test suite's
oracles.

Where the paper leaves the model open, one choice is fixed (README, "Model
choices", gives the reason for each): neighbor velocities are averaged, not
summed; the influence term pulls a cell toward its neighbors' motion; fresh
observations blend into a cell's estimate with weight ``EMA_DECAY``; and
the interaction coefficient is normalised by the speed of the latest
frame's mean velocity, which has no bound in a balanced counter-flow.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import EPS, Vec2, check_finite

#: Default pedestrian speed sanity cap used by track-log validation (m/s).
V_PED_MAX = 3.0

#: Particle speed per unit force in ``FlowField.advect``: the inverse of the
#: default xi, so a particle in a steady stream moves at the stream's speed.
ADVECT_SPEED_SCALE = 2.0

#: Blend weight of a frame's observations into a cell's velocity estimate.
EMA_DECAY = 0.3

# Rows per block of ``FlowField.deposit_frame``. Blocks of 1k-16k rows
# deposit a 60,050-row log equally fast; one block for the whole log
# raises the peak memory of ``fipp extract`` by about 7 MB.
_DEPOSIT_BLOCK_ROWS = 4096

_COMPONENTS = np.array([0, 1])


@dataclass(frozen=True, eq=False)
class TrackLog:
    """Frames of observations as columns: ``ids`` (int64, unique within a
    frame) and ``state``, one row x, y, vx, vy per pedestrian (m and m/s),
    hold the rows of every frame, frame after frame; ``t`` is each frame's
    timestamp and ``starts`` the row where each frame begins (a frame ends
    where the next begins, the last at the end of the columns, so a frame
    may be empty). Timestamps must increase strictly across a log. The
    simulator's crowd at one step is a one-frame log. The arrays are made
    read-only, so a log can share them with whoever built it. Each builder
    checks the ids once: the simulator by its id counter, the track-log
    reader by column."""

    t: np.ndarray
    starts: np.ndarray
    ids: np.ndarray
    state: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        starts = np.asarray(self.starts, dtype=np.int64)
        ids = np.asarray(self.ids, dtype=np.int64)
        state = np.asarray(self.state, dtype=float)
        if ids.ndim != 1 or state.shape != (ids.size, 4):
            raise ValueError("a track log needs n ids and an (n, 4) state array")
        if t.ndim != 1 or starts.shape != t.shape:
            raise ValueError("a track log needs one start row per frame time")
        # On Python ints: numpy's reductions cost more than a one-frame log's
        # other checks together.
        firsts = starts.tolist()
        if not firsts:
            fits = ids.size == 0
        else:
            fits = firsts[0] == 0 and firsts[-1] <= ids.size and firsts == sorted(firsts)
        if not fits:
            raise ValueError("frame start rows must rise from 0 within the rows")
        for name, array in (("t", t), ("starts", starts), ("ids", ids), ("state", state)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def concat(cls, logs) -> "TrackLog":
        """The frames of ``logs``, log after log, as one log."""
        logs = list(logs)
        offsets = itertools.accumulate((log.ids.size for log in logs), initial=0)
        return cls(
            np.concatenate([np.empty(0), *(log.t for log in logs)]),
            np.concatenate(
                [np.empty(0, np.int64), *(log.starts + at for log, at in zip(logs, offsets))]
            ),
            np.concatenate([np.empty(0, np.int64), *(log.ids for log in logs)]),
            np.concatenate([np.empty((0, 4)), *(log.state for log in logs)]),
        )


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the mesh grid: ``origin`` is the lower-left corner of cell
    (0, 0); cells are squares of side ``cell_size``."""

    origin: Vec2
    cell_size: float
    width: int
    height: int

    def __post_init__(self) -> None:
        check_finite(origin_x=self.origin.x, origin_y=self.origin.y, cell_size=self.cell_size)
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must have at least one cell per axis")

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def cell_center(self, i: int, j: int) -> Vec2:
        return Vec2(
            self.origin.x + (i + 0.5) * self.cell_size,
            self.origin.y + (j + 0.5) * self.cell_size,
        )

    def contains(self, p: Vec2) -> bool:
        return (
            self.origin.x <= p.x <= self.origin.x + self.width * self.cell_size
            and self.origin.y <= p.y <= self.origin.y + self.height * self.cell_size
        )

    def cell_of(self, p: Vec2) -> tuple[int, int]:
        """Cell whose center is nearest to ``p`` (indices clamped to the
        grid, so out-of-bounds points map to the nearest boundary cell)."""
        i = int(math.floor((p.x - self.origin.x) / self.cell_size))
        j = int(math.floor((p.y - self.origin.y) / self.cell_size))
        return (min(max(i, 0), self.width - 1), min(max(j, 0), self.height - 1))

    def cell_indices(self, xy: np.ndarray) -> np.ndarray:
        """``cell_of`` for an (n, 2) array of points: an (n, 2) int64 array
        of their (i, j) cells."""
        ij = np.floor((xy - (self.origin.x, self.origin.y)) / self.cell_size)
        np.maximum(ij, 0.0, out=ij)
        np.minimum(ij, (self.width - 1, self.height - 1), out=ij)
        return ij.astype(np.int64)

    def cells_of(self, xy: np.ndarray) -> set[tuple[int, int]]:
        """The set of cells holding the points of an (n, 2) array."""
        return set(zip(*self.cell_indices(xy).T.tolist()))


@dataclass(frozen=True)
class FlowParams:
    """Knobs of the force model.

    xi: self-propulsion coefficient (0.5 reproduces typical walking crowds).
    h: influence radius in meters; neighbors beyond it are ignored.
    """

    xi: float = 0.5
    h: float = 1.0

    def __post_init__(self) -> None:
        check_finite(xi=self.xi, h=self.h)
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")
        if self.h <= 0:
            raise ValueError("influence radius h must be positive")


def _mean_velocity(state: np.ndarray) -> Vec2:
    """Component-wise mean velocity over the rows of ``state`` (zero for
    none). The sums run left to right in row order, one float at a time."""
    n = len(state)
    if n == 0:
        return Vec2(0.0, 0.0)
    return Vec2(sum(state[:, 2].tolist()) / n, sum(state[:, 3].tolist()) / n)


def force_magnitude(force: np.ndarray) -> np.ndarray:
    """|f| of each vector of a ``(..., 2)`` force array, the number
    ``math.hypot`` gives, bit for bit: numpy's norm and hypot round some
    magnitudes differently, and every magnitude fipp writes or costs must
    be the same number. A vector whose larger component is a normal float
    goes through CPython 3.11's own steps (``vector_norm`` in
    Modules/mathmodule.c) on whole arrays: scale by a power of two, square
    exactly, sum with compensation, take the square root and correct it
    once. Any other vector (zero, subnormal, inf, NaN) calls ``math.hypot``.
    A magnitude past the largest float is inf."""
    fx, fy = np.abs(force[..., 0]).ravel(), np.abs(force[..., 1]).ravel()
    top = np.maximum(fx, fy)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.ldexp(1.0, -np.frexp(top)[1])
        csum, frac1, frac2 = 1.0, 0.0, 0.0
        for x in (fx, fy):
            hi, lo = _exact_square(x * scale)
            total = csum + hi
            frac1 = frac1 + lo
            frac2 = frac2 + (hi - (total - csum))
            csum = total
        h = np.sqrt(csum - 1.0 + (frac1 + frac2))
        # The correction adds -h * h to the sum the same way.
        hi, lo = _exact_square(h)
        total = csum - hi
        frac1 = frac1 - lo
        frac2 = frac2 + (-hi - (total - csum))
        h += (total - 1.0 + (frac1 + frac2)) / (2.0 * h)
        mag = h / scale
    other = np.flatnonzero(~((top >= sys.float_info.min) & (top <= sys.float_info.max)))
    if other.size:
        mag[other] = list(map(math.hypot, fx[other].tolist(), fy[other].tolist()))
    return mag.reshape(force.shape[:-1])


def _exact_square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x * x`` as its rounded value and the exact rest: Dekker's product
    of the two halves Veltkamp's split (by 2 ** 27 + 1) cuts ``x`` into."""
    t = x * 134217729.0
    hi = t - (t - x)
    lo = x - hi
    p = hi * hi
    q = hi * lo + lo * hi
    z = p + q
    return z, p - z + q + lo * lo


# ---------------------------------------------------------------------------
# The mesh grid.
# ---------------------------------------------------------------------------


class FlowField:
    """Mesh grid of velocity estimates and crowd forces.

    Internally cell state lives in numpy arrays indexed ``[j, i]`` (row =
    y index). ``deposit_frame`` absorbs a track log's frames,
    ``update_field`` recomputes the per-cell forces from the current
    estimates, ``sample_flow``/``advect`` read the force field back out.
    ``frame_avg_speed`` is the |v_avg| the last ``update_field`` divided
    the interaction coefficient by.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        shape = (spec.height, spec.width)
        self.velocity = np.zeros(shape + (2,))
        self.force = np.zeros(shape + (2,))
        self.occupancy = np.zeros(shape, dtype=np.int64)
        self.mu = np.zeros(shape)
        self.dropped_total = 0
        self.frame_avg_speed = 0.0
        self._frame_avg_velocity = Vec2(0.0, 0.0)

    def deposit_frame(self, log: TrackLog) -> int:
        """Blend the frames of a track log into the grid, one after another:
        ``fipp extract`` deposits the log it read, the simulator's replanner
        the frames seen since its last replan.

        Each observation lands in the cell containing it; the observations
        of one frame in one cell are averaged before the ``EMA_DECAY``
        blend. The per-cell sums run in id order (``bincount`` adds its
        weights in input order), so the result is independent of
        observation order. ``occupancy`` keeps the last frame's counts.

        The frames go in blocks of whole frames of at most
        ``_DEPOSIT_BLOCK_ROWS`` rows (a larger frame is a block alone), cut
        at the frames' start rows. One sort by (frame * cells + cell, id)
        and one ``bincount`` over the groups of equal (frame, cell) give a
        block's sums; the blend then runs as one vectorised update per
        frame, in frame order.
        Returns the number of observations dropped for being outside the
        grid.
        """
        starts, ids, state = log.starts.tolist(), log.ids, log.state
        if not starts:  # a log of no frames
            return 0
        spec = self.spec
        n_cells = spec.n_cells
        lo = (spec.origin.x, spec.origin.y)
        hi = (lo[0] + spec.width * spec.cell_size, lo[1] + spec.height * spec.cell_size)
        velocity = self.velocity.reshape(-1, 2)
        bounds = starts + [ids.size]  # frame k is rows bounds[k]:bounds[k + 1]
        lengths = np.diff(bounds)
        dropped = a = 0
        while a < len(starts):
            # Frames a to b, the most whose rows fit in a block, at least one.
            b = max(bisect.bisect_right(bounds, bounds[a] + _DEPOSIT_BLOCK_ROWS) - 1, a + 1)
            r0, r1 = bounds[a], bounds[b]
            block = state[r0:r1]
            xy = block[:, :2]
            inside = (lo <= xy) & (xy <= hi)
            inside = inside[:, 0] & inside[:, 1]
            rows = block[inside]
            dropped += len(block) - len(rows)
            ij = spec.cell_indices(rows[:, :2])
            # The frame of each row, counted from frame a.
            at = np.repeat(np.arange(b - a), lengths[a:b])[inside]
            key = at * n_cells + (ij[:, 1] * spec.width + ij[:, 0])
            order = np.lexsort((ids[r0:r1][inside], key))
            key = key[order]
            new = np.empty(key.size, dtype=bool)  # the first row of each (frame, cell) group
            new[:1] = True
            np.not_equal(key[1:], key[:-1], out=new[1:])
            group = new.cumsum()  # from 1; bin 0 stays empty
            # One bin per (group, component); each bin adds its own values
            # in row order.
            sums = np.bincount(
                np.add.outer(2 * group, _COMPONENTS).ravel(), weights=rows[order, 2:].ravel()
            ).reshape(-1, 2)[1:]
            counts = np.bincount(group)[1:]
            blend = EMA_DECAY * (sums / counts[:, None])
            frame, cells = np.divmod(key[new], n_cells)
            groups = np.searchsorted(frame, np.arange(b - a + 1)).tolist()
            for g0, g1 in zip(groups[:-1], groups[1:]):
                hit = cells[g0:g1]
                velocity[hit] = (1.0 - EMA_DECAY) * velocity[hit] + blend[g0:g1]
            a = b
        # The last block's last frame is the last frame.
        last = groups[-2]
        self.occupancy[...] = 0
        self.occupancy.reshape(-1)[cells[last:]] = counts[last:]
        self._frame_avg_velocity = _mean_velocity(state[bounds[-2]:])
        self.dropped_total += dropped
        return dropped

    def update_field(self, params: FlowParams) -> None:
        """Recompute force and friction at every cell from the current
        velocity estimates, this frame's occupancy and the frame-average
        velocity. Pure in the cell ordering; cells with no occupied or
        moving neighborhood and zero velocity keep zero force."""
        cs, h = self.spec.cell_size, params.h
        H, W = self.occupancy.shape
        # Offsets past the grid's width or height see no cell from anywhere,
        # so the reach stops there (and stays an int when h / cs overflows).
        reach = int(math.floor(min(h / cs, max(W, H)) + 1e-12))
        ri, rj = min(reach, W - 1), min(reach, H - 1)
        # The cell state as planes [component, j, i]; the squared speed is
        # np.linalg.norm's sum, so a velocity whose square underflows to 0
        # counts as not moving.
        vel = self.velocity.transpose(2, 0, 1)
        vx, vy = vel
        moving = vx * vx + vy * vy > 0.0
        # Four planes, zero off the grid by the influence reach: occupied,
        # moving, and the x and y velocity of a moving cell.
        planes = np.zeros((4, H + 2 * rj, W + 2 * ri))
        inner = planes[:, rj : rj + H, ri : ri + W]
        inner[0] = self.occupancy > 0
        inner[1] = moving
        np.multiply(vel, moving, out=inner[2:])

        # Per cell, the sums of the four planes over its neighbors, and the
        # summed and the largest distance to an occupied neighbor.
        acc = np.zeros((4, H, W))
        sum_dist = np.zeros((H, W))
        max_dist = np.zeros((H, W))
        for dj in range(-rj, rj + 1):
            for di in range(-ri, ri + 1):
                dist = math.hypot(di * cs, dj * cs)
                if (di == 0 and dj == 0) or dist > h:
                    continue
                # The neighbor at (di, dj) of every cell.
                shifted = planes[:, rj + dj : rj + dj + H, ri + di : ri + di + W]
                acc += shifted
                occ_dist = shifted[0] * dist
                sum_dist += occ_dist
                np.maximum(max_dist, occ_dist, out=max_dist)
        n_occ, n_moving = acc[0], acc[1]

        denom = n_occ * max_dist
        mu = np.where(denom > 0.0, 1.0 - sum_dist / np.where(denom > 0.0, denom, 1.0), 0.0)
        np.maximum(mu, 0.0, out=mu)

        counts = np.where(n_moving > 0.0, n_moving, 1.0)
        rx, ry = v_rel = acc[2:] / counts

        v_avg_mag = self._frame_avg_velocity.magnitude()
        if v_avg_mag < EPS:
            alpha = np.zeros_like(mu)
        else:
            alpha = np.sqrt(rx * rx + ry * ry) / v_avg_mag
        influence = alpha * (v_rel - vel)

        self.mu = mu
        self.frame_avg_speed = v_avg_mag
        force = -mu * vel + influence + params.xi * vel
        self.force = np.ascontiguousarray(force.transpose(1, 2, 0))

    def sample_flow(self, p: Vec2) -> Vec2:
        """Bilinear interpolation of the force field at ``p``; positions
        outside the grid clamp to the nearest boundary cell."""
        spec = self.spec
        u = (p.x - spec.origin.x) / spec.cell_size - 0.5
        v = (p.y - spec.origin.y) / spec.cell_size - 0.5
        u = min(max(u, 0.0), float(spec.width - 1))
        v = min(max(v, 0.0), float(spec.height - 1))
        i0 = min(int(math.floor(u)), max(spec.width - 2, 0))
        j0 = min(int(math.floor(v)), max(spec.height - 2, 0))
        i1 = min(i0 + 1, spec.width - 1)
        j1 = min(j0 + 1, spec.height - 1)
        tx = u - i0
        ty = v - j0
        f = self.force
        fx, fy = (
            (1 - tx) * (1 - ty) * f[j0, i0]
            + tx * (1 - ty) * f[j0, i1]
            + (1 - tx) * ty * f[j1, i0]
            + tx * ty * f[j1, i1]
        ).tolist()
        return Vec2(fx, fy)

    def advect(self, start: Vec2, dt: float, steps: int) -> list[Vec2]:
        """Forward-Euler advection of a test particle: each step moves by
        ``dt * ADVECT_SPEED_SCALE * sample_flow(p)``. Returns the full
        trajectory including the start point (``steps + 1`` points). Raises
        ValueError naming the start point, ``dt`` and the step at which a
        position stops being finite."""
        check_advection(dt, steps)
        traj = [start]
        p = start
        for k in range(1, steps + 1):
            f = self.sample_flow(p)
            p = Vec2(
                p.x + dt * ADVECT_SPEED_SCALE * f.x, p.y + dt * ADVECT_SPEED_SCALE * f.y
            )
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError(
                    f"advection from ({start.x!r}, {start.y!r}) with dt {dt!r}: the position "
                    f"is not finite at step {k}"
                )
            traj.append(p)
        return traj


def check_advection(dt: float, steps: int) -> None:
    """Raise ValueError unless ``dt`` is a positive finite timestep and
    ``steps`` a nonnegative step count."""
    check_finite(dt=dt)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be nonnegative")


# ---------------------------------------------------------------------------
# Trajectory comparison.
# ---------------------------------------------------------------------------


def resample_by_arclength(points: list[Vec2] | np.ndarray, n: int) -> np.ndarray:
    """Resample a polyline to ``n`` points uniformly spaced in arc length
    (endpoints preserved). A zero-length trajectory repeats its point."""
    if len(points) > 0 and isinstance(points[0], Vec2):
        pts = np.asarray([[p.x, p.y] for p in points], dtype=float)
    else:
        pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("trajectory must contain at least one point")
    if n < 1:
        raise ValueError("n must be at least 1")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total == 0.0 or pts.shape[0] == 1:
        return np.repeat(pts[:1], n, axis=0)
    targets = np.linspace(0.0, total, n)
    out = np.empty((n, 2))
    out[:, 0] = np.interp(targets, s, pts[:, 0])
    out[:, 1] = np.interp(targets, s, pts[:, 1])
    return out


def trajectory_deviation(
    predicted: list[Vec2] | np.ndarray, actual: list[Vec2] | np.ndarray
) -> float:
    """Mean pointwise distance between two trajectories after resampling both
    to the shorter point count by arc-length interpolation. Not finite, with
    no warning, when a trajectory's arc length or a distance overflows."""
    if len(predicted) == 0 or len(actual) == 0:
        raise ValueError("cannot compare empty trajectories")
    n = min(len(predicted), len(actual))
    with np.errstate(over="ignore", invalid="ignore"):
        rp = resample_by_arclength(predicted, n)
        ra = resample_by_arclength(actual, n)
        return float(np.mean(np.linalg.norm(rp - ra, axis=1)))

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
every cell at once: the cell state is zero-padded once by the influence
reach, and each neighbor offset within ``h`` reads a slice view of the
padded arrays, so no neighbor plane is copied. Its independent per-cell
reference is written out in plain loops in the test suite's oracles.

Two model ambiguities are kept configurable rather than silently resolved:
``rel_velocity_mode`` chooses whether neighbor velocities are summed or
averaged, and ``influence_sign`` chooses whether the influence term pulls a
cell toward its neighbors' motion (default) or away from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EPS, Vec2, check_finite

REL_VELOCITY_MODES = ("mean", "sum")
INFLUENCE_SIGNS = ("toward_neighbors", "as_written")

#: Default pedestrian speed sanity cap used by track-log validation (m/s).
V_PED_MAX = 3.0

#: Particle speed per unit force in ``FlowField.advect``: the inverse of the
#: default xi, so a particle in a steady stream moves at the stream's speed.
ADVECT_SPEED_SCALE = 2.0

_COMPONENTS = np.array([0, 1])


@dataclass(frozen=True, eq=False)
class TrackFrame:
    """All pedestrians observed at one timestamp, as parallel arrays: ``ids``
    (int64, unique within a frame) and ``state``, one row x, y, vx, vy per
    pedestrian (m and m/s). The arrays are made read-only, so a frame can
    share them with whoever built it. Timestamps must increase strictly
    across a log."""

    t: float
    ids: np.ndarray
    state: np.ndarray

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int64)
        state = np.asarray(self.state, dtype=float)
        if ids.ndim != 1 or state.shape != (ids.size, 4):
            raise ValueError("a frame needs n ids and an (n, 4) state array")
        if len(set(ids.tolist())) != ids.size:
            raise ValueError("duplicate pedestrian ids within a frame")
        ids.flags.writeable = False
        state.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "state", state)

    @classmethod
    def from_rows(cls, t: float, rows) -> "TrackFrame":
        """Frame from ``(id, x, y, vx, vy)`` rows."""
        rows = list(rows)
        return cls(
            t,
            np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[1:] for r in rows], dtype=float).reshape(len(rows), 4),
        )

    def __len__(self) -> int:
        return self.ids.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrackFrame):
            return NotImplemented
        return (
            self.t == other.t
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.state, other.state)
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

    def cell_indices(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``cell_of`` for arrays of coordinates: (i, j) index arrays."""
        i = np.floor((x - self.origin.x) / self.cell_size)
        j = np.floor((y - self.origin.y) / self.cell_size)
        i = np.minimum(np.maximum(i, 0.0), self.width - 1)
        j = np.minimum(np.maximum(j, 0.0), self.height - 1)
        return i.astype(np.int64), j.astype(np.int64)

    def cells_of(self, x: np.ndarray, y: np.ndarray) -> set[tuple[int, int]]:
        """The set of cells holding the points (x[k], y[k])."""
        i, j = self.cell_indices(x, y)
        return set(zip(i.tolist(), j.tolist()))


@dataclass(frozen=True)
class FlowParams:
    """Knobs of the force model.

    xi: self-propulsion coefficient (0.5 reproduces typical walking crowds).
    h: influence radius in meters; neighbors beyond it are ignored.
    rel_velocity_mode: aggregate in-radius neighbor velocities by "mean"
        (bounded, default) or plain "sum".
    influence_sign: "toward_neighbors" pulls a cell toward the local crowd
        velocity; "as_written" applies the opposite sign.
    ema_decay: blend weight of fresh observations into a cell's velocity
        estimate (1.0 = overwrite each frame).
    """

    xi: float = 0.5
    h: float = 1.0
    rel_velocity_mode: str = "mean"
    influence_sign: str = "toward_neighbors"
    ema_decay: float = 0.3

    def __post_init__(self) -> None:
        check_finite(xi=self.xi, h=self.h, ema_decay=self.ema_decay)
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")
        if self.h <= 0:
            raise ValueError("influence radius h must be positive")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ValueError("ema_decay must lie in [0, 1]")
        if self.rel_velocity_mode not in REL_VELOCITY_MODES:
            raise ValueError(f"rel_velocity_mode must be one of {REL_VELOCITY_MODES}")
        if self.influence_sign not in INFLUENCE_SIGNS:
            raise ValueError(f"influence_sign must be one of {INFLUENCE_SIGNS}")


def average_velocity(frame: TrackFrame) -> Vec2:
    """Component-wise mean velocity over everyone in the frame (zero for an
    empty frame). The sums run left to right in frame order, one float at a
    time."""
    n = len(frame)
    if n == 0:
        return Vec2(0.0, 0.0)
    return Vec2(sum(frame.state[:, 2].tolist()) / n, sum(frame.state[:, 3].tolist()) / n)


# ---------------------------------------------------------------------------
# The mesh grid.
# ---------------------------------------------------------------------------


class FlowField:
    """Mesh grid of velocity estimates and crowd forces.

    Internally cell state lives in numpy arrays indexed ``[j, i]`` (row =
    y index). ``deposit_frame`` absorbs one frame of observations,
    ``update_field`` recomputes the per-cell forces from the current
    estimates, ``sample_flow``/``advect`` read the force field back out.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        shape = (spec.height, spec.width)
        self.velocity = np.zeros(shape + (2,))
        self.force = np.zeros(shape + (2,))
        self.occupancy = np.zeros(shape, dtype=np.int64)
        self.mu = np.zeros(shape)
        self.dropped_total = 0
        self._frame_avg_velocity = Vec2(0.0, 0.0)

    def deposit_frame(self, frame: TrackFrame, params: FlowParams) -> int:
        """Blend one frame of observations into the grid.

        Each observation lands in the cell containing it; several
        observations in one cell are averaged before the EMA blend. The
        per-cell sums run in id order (``bincount`` adds its weights in
        input order), so the result is independent of observation order.
        Returns the number of observations dropped for being outside the
        grid.
        """
        spec = self.spec
        rows = frame.state[np.argsort(frame.ids, kind="stable")]
        x, y = rows[:, 0], rows[:, 1]
        inside = (
            (spec.origin.x <= x)
            & (x <= spec.origin.x + spec.width * spec.cell_size)
            & (spec.origin.y <= y)
            & (y <= spec.origin.y + spec.height * spec.cell_size)
        )
        rows = rows[inside]
        i, j = spec.cell_indices(rows[:, 0], rows[:, 1])
        cell = j * spec.width + i
        counts = np.bincount(cell, minlength=spec.n_cells)
        # One bin per (cell, component); each bin still adds its own
        # values in row order.
        sums = np.bincount(
            np.add.outer(2 * cell, _COMPONENTS).ravel(),
            weights=rows[:, 2:].ravel(),
            minlength=2 * spec.n_cells,
        ).reshape(-1, 2)
        hit = np.flatnonzero(counts)
        d = params.ema_decay
        velocity = self.velocity.reshape(-1, 2)
        velocity[hit] = (1.0 - d) * velocity[hit] + d * (sums[hit] / counts[hit, None])
        self.occupancy[...] = counts.reshape(self.occupancy.shape)
        dropped = len(frame) - len(rows)
        self.dropped_total += dropped
        self._frame_avg_velocity = average_velocity(frame)
        return dropped

    def update_field(self, params: FlowParams) -> None:
        """Recompute force and friction at every cell from the current
        velocity estimates, this frame's occupancy and the frame-average
        velocity. Pure in the cell ordering; cells with no occupied or
        moving neighborhood and zero velocity keep zero force."""
        cs, h = self.spec.cell_size, params.h
        H, W = self.occupancy.shape
        # Offsets past the grid's width or height see no cell from anywhere.
        reach = int(math.floor(h / cs + 1e-12))
        ri, rj = min(reach, W - 1), min(reach, H - 1)
        pad = ((rj, rj), (ri, ri))
        moving = np.linalg.norm(self.velocity, axis=2) > 0.0
        occ_p = np.pad((self.occupancy > 0).astype(float), pad)
        moving_p = np.pad(moving.astype(float), pad)
        vel_p = np.pad(self.velocity * moving[..., None], pad + ((0, 0),))

        sum_dist = np.zeros((H, W))
        n_occ = np.zeros((H, W))
        max_dist = np.zeros((H, W))
        sum_vel = np.zeros_like(self.velocity)
        n_moving = np.zeros((H, W))
        for dj in range(-rj, rj + 1):
            for di in range(-ri, ri + 1):
                dist = math.hypot(di * cs, dj * cs)
                if (di == 0 and dj == 0) or dist > h:
                    continue
                # The neighbor at (di, dj) of every cell, zero off the grid.
                view = np.s_[rj + dj : rj + dj + H, ri + di : ri + di + W]
                occ_sh = occ_p[view]
                sum_dist += occ_sh * dist
                n_occ += occ_sh
                np.maximum(max_dist, occ_sh * dist, out=max_dist)
                n_moving += moving_p[view]
                sum_vel += vel_p[view]

        denom = n_occ * max_dist
        mu = np.where(denom > 0.0, 1.0 - sum_dist / np.where(denom > 0.0, denom, 1.0), 0.0)
        np.maximum(mu, 0.0, out=mu)

        if params.rel_velocity_mode == "mean":
            counts = np.where(n_moving > 0.0, n_moving, 1.0)
            v_rel = sum_vel / counts[..., None]
        else:
            v_rel = sum_vel

        v_avg_mag = self._frame_avg_velocity.magnitude()
        if v_avg_mag < EPS:
            alpha = np.zeros_like(mu)
        else:
            alpha = np.linalg.norm(v_rel, axis=2) / v_avg_mag

        if params.influence_sign == "as_written":
            influence = alpha[..., None] * (self.velocity - v_rel)
        else:
            influence = alpha[..., None] * (v_rel - self.velocity)

        self.mu = mu
        self.force = -mu[..., None] * self.velocity + influence + params.xi * self.velocity

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
        fx = (
            (1 - tx) * (1 - ty) * f[j0, i0, 0]
            + tx * (1 - ty) * f[j0, i1, 0]
            + (1 - tx) * ty * f[j1, i0, 0]
            + tx * ty * f[j1, i1, 0]
        )
        fy = (
            (1 - tx) * (1 - ty) * f[j0, i0, 1]
            + tx * (1 - ty) * f[j0, i1, 1]
            + (1 - tx) * ty * f[j1, i0, 1]
            + tx * ty * f[j1, i1, 1]
        )
        return Vec2(float(fx), float(fy))

    def advect(self, start: Vec2, dt: float, steps: int) -> list[Vec2]:
        """Forward-Euler advection of a test particle: each step moves by
        ``dt * ADVECT_SPEED_SCALE * sample_flow(p)``. Returns the full
        trajectory including the start point (``steps + 1`` points)."""
        check_advection(dt, steps)
        traj = [start]
        p = start
        for _ in range(steps):
            f = self.sample_flow(p)
            p = Vec2(
                p.x + dt * ADVECT_SPEED_SCALE * f.x, p.y + dt * ADVECT_SPEED_SCALE * f.y
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
    to the shorter point count by arc-length interpolation."""
    if len(predicted) == 0 or len(actual) == 0:
        raise ValueError("cannot compare empty trajectories")
    n = min(len(predicted), len(actual))
    rp = resample_by_arclength(predicted, n)
    ra = resample_by_arclength(actual, n)
    return float(np.mean(np.linalg.norm(rp - ra, axis=1)))

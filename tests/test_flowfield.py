"""Grid-level flow field tests: deposit semantics, the vectorized force
update (hand-worked cells, and every cell against the per-cell reference in
oracles.py), sampling, advection, trajectory comparison, and the force
magnitude against math.hypot bit for bit. The force
model's term-by-term examples live in test_forces.py."""

from __future__ import annotations

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fipp import (
    FlowField,
    FlowParams,
    GridSpec,
    TrackFrame,
    TrackLog,
    Vec2,
    average_velocity,
    resample_by_arclength,
    trajectory_deviation,
)
from fipp.flowfield import force_magnitude
from oracles import average_velocity_reference, deposit_reference, field_force_reference
from tracklogs import frames_of, log_of


def _obs(ped_id, pos, vel):
    """A track row: id, x, y, vx, vy."""
    return (ped_id, *pos, *vel)


def _spec(width=8, height=6, cs=0.5, origin=(0.0, 0.0)):
    return GridSpec(Vec2(*origin), cs, width, height)


# ---------------------------------------------------------------------------
# GridSpec geometry
# ---------------------------------------------------------------------------


def test_grid_cell_center():
    spec = _spec()
    assert spec.cell_center(0, 0) == Vec2(0.25, 0.25)
    assert spec.cell_center(3, 2) == Vec2(1.75, 1.25)


def test_grid_contains_closed_bounds():
    spec = _spec(width=4, height=4, cs=0.5)
    assert spec.contains(Vec2(0.0, 0.0))
    assert spec.contains(Vec2(2.0, 2.0))  # far corner included
    assert not spec.contains(Vec2(2.0000001, 1.0))
    assert not spec.contains(Vec2(-0.0001, 1.0))


def test_grid_cell_of_floor_and_clamp():
    spec = _spec(width=4, height=4, cs=0.5)
    assert spec.cell_of(Vec2(0.49, 0.0)) == (0, 0)
    assert spec.cell_of(Vec2(0.5, 0.0)) == (1, 0)  # boundary joins the upper cell
    assert spec.cell_of(Vec2(2.0, 2.0)) == (3, 3)  # far edge clamps inward
    assert spec.cell_of(Vec2(-9.0, 9.0)) == (0, 3)  # out of bounds clamps
    assert spec.n_cells == 16


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(Vec2(0, 0), 0.0, 4, 4)
    with pytest.raises(ValueError):
        GridSpec(Vec2(0, 0), 0.5, 0, 4)


def test_flow_params_validation():
    with pytest.raises(ValueError):
        FlowParams(xi=-0.1)
    with pytest.raises(ValueError):
        FlowParams(h=0.0)


@pytest.mark.parametrize("name", ["xi", "h"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_flow_params_reject_non_finite_values_naming_them(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number"):
        FlowParams(**{name: value})


@pytest.mark.parametrize(
    "origin,cell_size,name",
    [((math.nan, 0.0), 0.5, "origin_x"), ((0.0, -math.inf), 0.5, "origin_y"),
     ((0.0, 0.0), math.inf, "cell_size"), ((0.0, 0.0), math.nan, "cell_size")],
)
def test_grid_rejects_non_finite_geometry_naming_it(origin, cell_size, name):
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number"):
        GridSpec(Vec2(*origin), cell_size, 4, 4)


def test_track_frame_checks_its_arrays():
    frame = TrackFrame(0.5, [3, 1], [[1.0, 2.0, 0.5, 0.0], [3.0, 4.0, 0.0, -0.5]])
    assert frame.ids.dtype == np.int64 and len(frame) == 2
    assert frame == TrackFrame.from_rows(0.5, [(3, 1.0, 2.0, 0.5, 0.0), (1, 3.0, 4.0, 0.0, -0.5)])
    assert frame != TrackFrame.from_rows(0.5, [(3, 1.0, 2.0, 0.5, 0.0)])
    with pytest.raises(ValueError):
        frame.state[0, 0] = 9.0  # read-only
    with pytest.raises(ValueError, match="n ids and an"):
        TrackFrame(0.0, [1, 2], [[0.0, 0.0, 0.0, 0.0]])


def test_track_frame_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        TrackFrame.from_rows(0.0, (_obs(1, (0, 0), (0, 0)), _obs(1, (1, 1), (0, 0))))


# ---------------------------------------------------------------------------
# deposit_frame
# ---------------------------------------------------------------------------


def test_deposit_same_cell_observations_averaged():
    field = FlowField(_spec())
    frame = TrackFrame.from_rows(
        0.0, (_obs(0, (0.3, 0.3), (1.0, 0.0)), _obs(1, (0.2, 0.2), (0.0, 1.0)))
    )
    dropped = field.deposit_frame(frame)
    assert dropped == 0
    assert field.velocity[0, 0].tolist() == [0.3 * 0.5, 0.3 * 0.5]
    assert field.occupancy[0, 0] == 2


def test_deposit_ema_blend_and_persistence():
    field = FlowField(_spec())
    field.deposit_frame(TrackFrame.from_rows(0.0, (_obs(0, (0.25, 0.25), (1.0, 0.0)),)))
    assert field.velocity[0, 0].tolist() == [0.3, 0.0]
    field.deposit_frame(TrackFrame.from_rows(0.1, (_obs(0, (0.25, 0.25), (1.0, 0.0)),)))
    assert field.velocity[0, 0, 0] == pytest.approx(0.7 * 0.3 + 0.3, abs=1e-15)
    # A frame elsewhere leaves the estimate untouched (no decay of idle cells)
    # but resets the occupancy snapshot.
    before = field.velocity[0, 0].tolist()
    field.deposit_frame(TrackFrame.from_rows(0.2, (_obs(0, (2.25, 2.25), (1.0, 0.0)),)))
    assert field.velocity[0, 0].tolist() == before
    assert field.occupancy[0, 0] == 0


def test_deposit_drops_out_of_grid_observations():
    field = FlowField(_spec(width=4, height=4, cs=0.5))
    frame = TrackFrame.from_rows(
        0.0,
        (
            _obs(0, (1.0, 1.0), (1.0, 0.0)),
            _obs(1, (5.0, 1.0), (1.0, 0.0)),
            _obs(2, (-1.0, 0.5), (1.0, 0.0)),
        ),
    )
    dropped = field.deposit_frame(frame)
    assert dropped == 2
    assert field.dropped_total == 2
    field.deposit_frame(frame)
    assert field.dropped_total == 4


def test_deposit_is_order_independent():
    obs = [
        _obs(3, (0.3, 0.3), (1.0, 0.2)),
        _obs(1, (0.2, 0.4), (-0.5, 0.1)),
        _obs(2, (1.3, 0.3), (0.7, 0.7)),
        _obs(5, (1.4, 0.4), (0.2, -0.9)),
        _obs(4, (2.2, 1.8), (1.1, 0.0)),
    ]
    shuffled = list(obs)
    random.Random(7).shuffle(shuffled)
    a, b = FlowField(_spec()), FlowField(_spec())
    a.deposit_frame(TrackFrame.from_rows(0.0, tuple(obs)))
    b.deposit_frame(TrackFrame.from_rows(0.0, tuple(shuffled)))
    assert np.array_equal(a.velocity, b.velocity)
    assert np.array_equal(a.occupancy, b.occupancy)


def test_deposit_sums_each_cell_in_id_order():
    # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit: the
    # cell mean must come from the id-ordered sum whatever the row order.
    rows = [(2, 0.3, 0.3, 0.3, 0.0), (1, 0.3, 0.3, 0.2, 0.0), (0, 0.3, 0.3, 0.1, 0.0)]
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    field = FlowField(_spec())
    field.deposit_frame(TrackFrame.from_rows(0.0, rows))
    assert 0.3 * (((0.1 + 0.2) + 0.3) / 3) != 0.3 * (((0.3 + 0.2) + 0.1) / 3)
    assert field.velocity[0, 0, 0] == 0.3 * (((0.1 + 0.2) + 0.3) / 3)


# Far edges, cell borders and one crowded cell; velocities whose sums
# depend on the order they are added in ((0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)).
_edge = st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 2.5, 3.0, 3.5, 0.6, 0.7, 0.8])
_speed = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.1, 0.2, 0.3, -0.7, 1e-3]))


@settings(max_examples=200, deadline=None)
@given(
    frames=st.lists(
        st.lists(
            st.tuples(
                st.one_of(st.floats(-1.0, 4.5), _edge),
                st.one_of(st.floats(-1.0, 4.5), _edge),
                _speed,
                _speed,
            ),
            max_size=20,
        ),
        min_size=1,
        max_size=3,
    ),
    order_seed=st.integers(0, 1000),
)
def test_deposit_matches_per_observation_reference(frames, order_seed):
    # The array deposit against the per-observation dict loop, bit for bit:
    # points outside the grid, on its far edges and on cell borders, many
    # walkers per cell, shuffled ids, several frames of EMA blending.
    spec = GridSpec(Vec2(-0.5, 0.0), 0.5, 7, 6)
    field = FlowField(spec)
    want = [[(0.0, 0.0)] * spec.width for _ in range(spec.height)]
    for t, points in enumerate(frames):
        ids = list(range(len(points)))
        random.Random(order_seed + t).shuffle(ids)
        rows = [(k, *p) for k, p in zip(ids, points)]
        frame = TrackFrame.from_rows(0.1 * t, rows)
        dropped = field.deposit_frame(frame)
        want, occupancy, want_dropped = deposit_reference(
            (spec.origin.x, spec.origin.y), spec.cell_size, spec.width, spec.height,
            want, rows, 0.3,
        )
        assert dropped == want_dropped
        assert field.occupancy.tolist() == occupancy
        assert field.velocity.tobytes() == np.array(want, dtype=float).tobytes()
        assert average_velocity(frame).as_tuple() == average_velocity_reference(
            [p[2:] for p in points]
        )
    assert field.dropped_total == sum(
        not (-0.5 <= x <= 3.0 and 0.0 <= y <= 3.0) for points in frames for x, y, _, _ in points
    )


_INT64_EDGES = (-(2**63), -(2**63) + 1, -1, 0, 2**63 - 2, 2**63 - 1)


@st.composite
def _deposit_frame_rows(draw):
    """Rows (id, x, y, vx, vy) of one frame on the 7x6 grid from (-0.5, 0)
    with 0.5 m cells: scattered (off the grid, on edges and borders
    included), crowded into one cell past the 8 values numpy's pairwise
    sums take one by one, wholly off the grid, or none. Ids are unique,
    unsorted, and may sit at the int64 limits."""
    kind = draw(st.sampled_from(["scattered", "one_cell", "off_grid", "empty"]))
    if kind == "empty":
        return []
    if kind == "one_cell":
        i, j = draw(st.integers(0, 6)), draw(st.integers(0, 5))
        inner = st.floats(0.0, 0.49)
        # Speeds whose sums round differently in another order.
        speed = st.sampled_from([0.1, 0.2, 0.3, -0.7, 1e-3, 1 / 3, 1e16, -1e16])
        points = draw(st.lists(
            st.tuples(inner, inner, speed, speed).map(
                lambda p: (-0.5 + 0.5 * i + p[0], 0.5 * j + p[1], p[2], p[3])
            ),
            min_size=9, max_size=16,
        ))
    elif kind == "off_grid":
        side = st.one_of(st.floats(-9.0, -0.51), st.floats(3.01, 9.0))
        points = draw(st.lists(
            st.one_of(
                st.tuples(side, st.floats(-1.0, 4.5), _speed, _speed),
                st.tuples(st.floats(-1.0, 4.5), st.one_of(st.floats(-9.0, -0.01),
                          st.floats(3.01, 9.0)), _speed, _speed),
            ),
            min_size=1, max_size=6,
        ))
    else:
        coord = st.one_of(st.floats(-1.0, 4.5), _edge)
        points = draw(st.lists(st.tuples(coord, coord, _speed, _speed), min_size=1, max_size=12))
    ids = draw(st.lists(
        st.one_of(st.sampled_from(_INT64_EDGES), st.integers(-(2**63), 2**63 - 1)),
        min_size=len(points), max_size=len(points), unique=True,
    ))
    return [(ped_id, *p) for ped_id, p in zip(ids, points)]


@settings(max_examples=200, deadline=None)
@given(
    frames=st.lists(_deposit_frame_rows(), min_size=1, max_size=10),
    last_empty=st.booleans(),
    block_rows=st.sampled_from([1, 7, 10**9]),
)
def test_deposit_frames_in_blocks_matches_the_frame_by_frame_reference(
    frames, last_empty, block_rows
):
    # Whole frame lists through one deposit_frame call, as TrackFrames and
    # as one TrackLog of the same rows, cut into blocks of 1 row (a block
    # per frame), 7 rows, or one block, against the reference replayed
    # frame by frame: velocity bytes, the last frame's occupancy, the
    # dropped count and the last frame's mean speed.
    import fipp.flowfield

    if last_empty:
        frames = frames + [[]]
    spec = GridSpec(Vec2(-0.5, 0.0), 0.5, 7, 6)
    want = [[(0.0, 0.0)] * spec.width for _ in range(spec.height)]
    want_dropped = 0
    for rows in frames:
        want, occupancy, dropped = deposit_reference(
            (spec.origin.x, spec.origin.y), spec.cell_size, spec.width, spec.height,
            want, rows, 0.3,
        )
        want_dropped += dropped
    track = [TrackFrame.from_rows(0.1 * t, rows) for t, rows in enumerate(frames)]
    for deposit in (track, [log_of(track)]):
        field = FlowField(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fipp.flowfield, "_DEPOSIT_BLOCK_ROWS", block_rows)
            assert field.deposit_frame(*deposit) == want_dropped
        assert field.velocity.tobytes() == np.array(want, dtype=float).tobytes()
        assert field.occupancy.tolist() == occupancy
        assert field.dropped_total == want_dropped
        field.update_field(FlowParams())
        assert field.frame_avg_speed == average_velocity(track[-1]).magnitude()


def test_deposit_frames_of_no_frames_changes_nothing():
    field = FlowField(_spec())
    field.deposit_frame(TrackFrame.from_rows(0.0, [(3, 1.0, 1.0, 0.5, 0.0)]))
    before = (field.velocity.tobytes(), field.occupancy.tobytes(), field.dropped_total)
    assert field.deposit_frame() == 0
    assert field.deposit_frame(log_of([])) == 0
    assert (field.velocity.tobytes(), field.occupancy.tobytes(), field.dropped_total) == before
    field.update_field(FlowParams())
    assert field.frame_avg_speed == 0.5


def test_a_track_log_keeps_read_only_columns_and_checks_its_frame_starts():
    log = TrackLog([0.0, 0.1, 0.2], [0, 2, 2], [3, 1, 3], np.zeros((3, 4)))
    for column in (log.t, log.starts, log.ids, log.state):
        assert not column.flags.writeable
    assert [len(frame) for frame in frames_of(log)] == [2, 0, 1]
    bad = [
        ([0.0], [1], 2),  # the first frame starts after row 0
        ([0.0, 0.1], [0, 3], 2),  # a frame starts past the rows
        ([0.0, 0.1, 0.2], [0, 2, 1], 2),  # the starts fall
        ([0.0, 0.1], [0], 2),  # a time without a start
        ([], [], 1),  # rows in no frame
    ]
    for t, starts, n in bad:
        with pytest.raises(ValueError):
            TrackLog(t, starts, np.arange(n), np.zeros((n, 4)))
    with pytest.raises(ValueError):
        TrackLog([0.0], [0], [1, 2], np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# update_field
# ---------------------------------------------------------------------------


def test_update_empty_field_stays_zero():
    field = FlowField(_spec())
    field.update_field(FlowParams())
    assert not field.force.any()
    assert not field.mu.any()


def test_update_isolated_cell_self_propulsion_only():
    # One pedestrian alone: no occupied neighbors (mu = 0) and no moving
    # neighbors (v_rel = 0, so alpha = 0): the force is xi * v, with v the
    # cell's estimate 0.3 * (1, 0) after one frame.
    field = FlowField(_spec(width=9, height=9))
    field.deposit_frame(TrackFrame.from_rows(0.0, (_obs(0, (2.25, 2.25), (1.0, 0.0)),)))
    field.update_field(FlowParams())
    assert field.force[4, 4].tolist() == [0.5 * 0.3, 0.0]
    assert field.mu[4, 4] == 0.0


def test_update_pushes_flow_into_adjacent_empty_cells():
    # The cell next to the lone walker has v_i = 0 but sees one moving
    # neighbor: with the walker's cell set to its velocity and the frame
    # average (1, 0), alpha = 1 and the influence carries the crowd velocity
    # outward.
    field = FlowField(_spec(width=9, height=9))
    field.deposit_frame(TrackFrame.from_rows(0.0, (_obs(0, (2.25, 2.25), (1.0, 0.0)),)))
    field.velocity[4, 4] = (1.0, 0.0)
    field.update_field(FlowParams())
    assert field.force[4, 5].tolist() == [1.0, 0.0]


@pytest.mark.parametrize("speed, force_x", [(1e-200, 1.0), (1e-150, 0.25)])
def test_update_a_velocity_whose_square_underflows_is_not_moving(speed, force_x):
    # The cell between the walker's (velocity (1, 0)) and one at (speed, 0)
    # averages the velocity of its moving neighbors. Only the walker moves
    # when speed**2 underflows to 0: v_rel = (1, 0), alpha = 1. Otherwise
    # v_rel = (0.5, 0), alpha = 0.5.
    field = FlowField(_spec(width=9, height=9))
    field.deposit_frame(TrackFrame.from_rows(0.0, (_obs(0, (2.25, 2.25), (1.0, 0.0)),)))
    field.velocity[4, 4] = (1.0, 0.0)
    field.velocity[4, 6] = (speed, 0.0)
    params = FlowParams()
    field.update_field(params)
    assert field.mu[4, 5] == 0.0
    assert field.force[4, 5].tolist() == [force_x, 0.0]
    # The oracle states the same rule for a moving neighbor.
    want = field_force_reference(
        field.spec.cell_size,
        field.occupancy.tolist(),
        [[tuple(v) for v in row] for row in field.velocity.tolist()],
        (1.0, 0.0),
        params.h,
        params.xi,
    )
    for j in range(9):
        for i in range(9):
            mu, force = want[j][i]
            assert field.mu[j, i] == pytest.approx(mu, abs=1e-12)
            assert field.force[j, i].tolist() == pytest.approx(list(force), abs=1e-12)


def test_update_uniform_lane_force_is_xi_times_velocity():
    # Walkers spaced exactly one influence radius apart, each cell set to
    # its walker's velocity: every occupied cell sees only equidistant
    # occupied neighbors (mu = 0) and neighbors moving at its own velocity
    # (influence term vanishes), leaving xi * v.
    field = FlowField(_spec(width=17, height=5))
    obs = tuple(_obs(k, ((2 * k + 0.5) * 0.5, 1.25), (1.2, 0.0)) for k in range(9))
    field.deposit_frame(TrackFrame.from_rows(0.0, obs))
    field.velocity[2, 0::2] = (1.2, 0.0)
    field.update_field(FlowParams())
    for i in range(0, 17, 2):
        assert field.force[2, i].tolist() == [0.6, 0.0], i
        assert field.mu[2, i] == 0.0
    # The gaps between walkers inherit the crowd motion.
    for i in range(1, 16, 2):
        assert field.force[2, i].tolist() == [1.2, 0.0]


def test_update_matches_scalar_reference_cell_by_cell():
    # The vectorized grid update must agree with the published scalar
    # formulas evaluated per cell.
    rng = np.random.default_rng(91)
    spec = _spec(width=8, height=6, cs=0.5)
    params = FlowParams()
    field = FlowField(spec)
    for t in range(3):
        obs = tuple(
            _obs(
                k,
                (rng.uniform(0.0, 4.0), rng.uniform(0.0, 3.0)),
                (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
            )
            for k in range(7)
        )
        field.deposit_frame(TrackFrame.from_rows(0.1 * t, obs))
    field.update_field(params)

    want = field_force_reference(
        spec.cell_size,
        field.occupancy.tolist(),
        [[tuple(v) for v in row] for row in field.velocity.tolist()],
        average_velocity_reference([o[3:] for o in obs]),
        params.h,
        params.xi,
    )
    for j in range(spec.height):
        for i in range(spec.width):
            mu, force = want[j][i]
            assert field.mu[j, i] == pytest.approx(mu, abs=1e-12)
            assert field.force[j, i, 0] == pytest.approx(force[0], abs=1e-12)
            assert field.force[j, i, 1] == pytest.approx(force[1], abs=1e-12)


def test_update_uses_latest_frame_average():
    # alpha normalizes by the average velocity of the frame deposited last;
    # an empty final frame zeroes the influence everywhere.
    field = FlowField(_spec())
    field.deposit_frame(TrackFrame.from_rows(0.0, (_obs(0, (1.25, 1.25), (1.0, 0.0)),)))
    field.deposit_frame(TrackFrame.from_rows(0.1, ()))
    field.update_field(FlowParams())
    # Neighbor of the previously visited cell: moving neighbor exists but
    # alpha = 0, v_i = 0, mu = 0 (no occupied cells at all).
    assert field.force[2, 3].tolist() == [0.0, 0.0]
    # The visited cell keeps its estimate 0.3 * (1, 0) and self-propels.
    assert field.force[2, 2].tolist() == [0.5 * 0.3, 0.0]


def test_update_mu_never_negative():
    rng = np.random.default_rng(5)
    field = FlowField(_spec(width=10, height=10))
    params = FlowParams()
    for t in range(4):
        obs = tuple(
            _obs(k, (rng.uniform(0, 5), rng.uniform(0, 5)), (rng.uniform(-2, 2), rng.uniform(-2, 2)))
            for k in range(20)
        )
        field.deposit_frame(TrackFrame.from_rows(0.1 * t, obs))
    field.update_field(params)
    assert (field.mu >= 0.0).all()
    assert (field.mu < 1.0).all()


def test_update_is_deterministic():
    def build():
        field = FlowField(_spec())
        field.deposit_frame(
            TrackFrame.from_rows(
                0.0, (_obs(0, (0.3, 0.4), (1.0, 0.5)), _obs(1, (1.9, 1.1), (-0.4, 0.2)))
            )
        )
        field.update_field(FlowParams())
        return field

    a, b = build(), build()
    assert np.array_equal(a.force, b.force)
    assert np.array_equal(a.mu, b.mu)


# ---------------------------------------------------------------------------
# sample_flow
# ---------------------------------------------------------------------------


def _manual_field():
    field = FlowField(_spec(width=4, height=3, cs=0.5))
    for j in range(3):
        for i in range(4):
            field.force[j, i] = (i * 1.0, j * 1.0)
    return field


def test_sample_at_cell_center_is_exact():
    field = _manual_field()
    c = field.spec.cell_center(2, 1)
    assert field.sample_flow(c) == Vec2(2.0, 1.0)


def test_sample_midpoint_blends_neighbors():
    field = _manual_field()
    a = field.spec.cell_center(1, 0)
    b = field.spec.cell_center(2, 0)
    mid = Vec2((a.x + b.x) / 2, a.y)
    assert field.sample_flow(mid) == Vec2(1.5, 0.0)


def test_sample_outside_clamps_to_boundary():
    field = _manual_field()
    assert field.sample_flow(Vec2(-10.0, -10.0)) == Vec2(0.0, 0.0)
    assert field.sample_flow(Vec2(99.0, 99.0)) == Vec2(3.0, 2.0)
    # Past the last cell center but inside the grid: no phantom cells enter
    # the blend.
    edge = field.sample_flow(Vec2(1.99, 0.25))
    assert edge == Vec2(3.0, 0.0)


def test_sample_single_cell_grid():
    field = FlowField(_spec(width=1, height=1, cs=2.0))
    field.force[0, 0] = (0.7, -0.3)
    assert field.sample_flow(Vec2(1.0, 1.0)) == Vec2(0.7, -0.3)
    assert field.sample_flow(Vec2(-5.0, 5.0)) == Vec2(0.7, -0.3)


# ---------------------------------------------------------------------------
# advect
# ---------------------------------------------------------------------------


def test_advect_validation():
    field = _manual_field()
    with pytest.raises(ValueError):
        field.advect(Vec2(0.5, 0.5), dt=0.0, steps=3)
    with pytest.raises(ValueError):
        field.advect(Vec2(0.5, 0.5), dt=0.1, steps=-1)


def test_advect_zero_field_is_fixpoint():
    field = FlowField(_spec())
    traj = field.advect(Vec2(1.0, 1.0), dt=0.1, steps=5)
    assert traj == [Vec2(1.0, 1.0)] * 6


def test_advect_uniform_field_matches_closed_form():
    field = FlowField(_spec(width=10, height=10, cs=0.5))
    field.force[:, :] = (0.3, -0.1)
    start = Vec2(1.0, 4.0)
    dt, steps, scale = 0.1, 10, 2.0
    traj = field.advect(start, dt, steps)
    assert len(traj) == steps + 1
    end = traj[-1]
    assert end.x == pytest.approx(start.x + steps * dt * scale * 0.3, abs=1e-9)
    assert end.y == pytest.approx(start.y + steps * dt * scale * (-0.1), abs=1e-9)


def test_advect_default_scale_restores_lane_speed():
    # Lane at 1.2 m/s stored as force xi * v = 0.6 advects back at 1.2 m/s
    # with the speed scale 1 / xi = 2.
    field = FlowField(_spec(width=10, height=10, cs=0.5))
    field.force[:, :] = (0.6, 0.0)
    traj = field.advect(Vec2(0.5, 2.0), dt=0.1, steps=20)
    assert traj[-1].x == pytest.approx(0.5 + 2.0 * 1.2, abs=1e-9)
    assert traj[-1].y == 2.0


def test_advect_steps_through_varying_field():
    # Forward Euler means each step reads the field at the previous point;
    # replicate the walk through the public sampler and require an exact
    # match, then sanity-check the turn the field geometry dictates.
    field = FlowField(_spec(width=8, height=8, cs=0.5))
    field.force[:4, :] = (0.0, 0.5)  # lower half pushes +y
    field.force[4:, :] = (0.5, 0.0)  # upper half pushes +x
    start = Vec2(0.25, 0.25)
    traj = field.advect(start, dt=0.2, steps=25)
    p = start
    expected = [p]
    for _ in range(25):
        f = field.sample_flow(p)
        p = Vec2(p.x + 0.2 * 2.0 * f.x, p.y + 0.2 * 2.0 * f.y)
        expected.append(p)
    assert traj == expected
    assert traj[-1].y > start.y and traj[-1].x > start.x


# ---------------------------------------------------------------------------
# resampling and deviation
# ---------------------------------------------------------------------------


def test_resample_straight_line_uniform_spacing():
    pts = [Vec2(x, 0.0) for x in range(11)]
    out = resample_by_arclength(pts, 5)
    assert out.shape == (5, 2)
    assert np.allclose(out[:, 0], [0.0, 2.5, 5.0, 7.5, 10.0])
    assert np.allclose(out[:, 1], 0.0)


def test_resample_preserves_endpoints():
    pts = [Vec2(0, 0), Vec2(1, 2), Vec2(3, 1), Vec2(4, 4)]
    out = resample_by_arclength(pts, 7)
    assert np.allclose(out[0], [0, 0])
    assert np.allclose(out[-1], [4, 4])
    seg = np.linalg.norm(np.diff(out, axis=0), axis=1)
    # Chord lengths of an arc-length-uniform resample never exceed the
    # uniform arc spacing.
    total = sum(a.distance_to(b) for a, b in zip(pts, pts[1:]))
    assert (seg <= total / 6 + 1e-12).all()


def test_resample_degenerate_inputs():
    single = resample_by_arclength([Vec2(2.0, 3.0)], 4)
    assert np.allclose(single, [[2.0, 3.0]] * 4)
    stationary = resample_by_arclength([Vec2(1.0, 1.0), Vec2(1.0, 1.0)], 3)
    assert np.allclose(stationary, [[1.0, 1.0]] * 3)
    with pytest.raises(ValueError):
        resample_by_arclength([], 3)
    with pytest.raises(ValueError):
        resample_by_arclength([Vec2(0, 0), Vec2(1, 0)], 0)


def test_deviation_identical_trajectories_is_zero():
    pts = [Vec2(x * 0.5, math.sin(x * 0.5)) for x in range(10)]
    assert trajectory_deviation(pts, pts) == 0.0


def test_deviation_constant_offset():
    a = [Vec2(x, 0.0) for x in range(5)]
    b = [Vec2(x, 0.5) for x in range(5)]
    assert trajectory_deviation(a, b) == pytest.approx(0.5, abs=1e-12)


def test_deviation_single_endpoint_offset():
    # One endpoint off by 0.4 m, the other exact: mean over the two
    # resampled points is 0.2 m.
    predicted = [Vec2(0.0, 0.0), Vec2(1.0, 0.0)]
    actual = [Vec2(0.0, 0.4), Vec2(1.0, 0.0)]
    assert trajectory_deviation(predicted, actual) == pytest.approx(0.2, abs=1e-12)


def test_deviation_resamples_to_shorter_count():
    dense = [Vec2(x * 0.1, 0.0) for x in range(101)]
    sparse = [Vec2(0.0, 0.0), Vec2(5.0, 0.0), Vec2(10.0, 0.0)]
    assert trajectory_deviation(dense, sparse) == pytest.approx(0.0, abs=1e-12)
    assert trajectory_deviation(sparse, dense) == pytest.approx(0.0, abs=1e-12)


def test_deviation_empty_raises():
    with pytest.raises(ValueError):
        trajectory_deviation([], [Vec2(0, 0)])
    with pytest.raises(ValueError):
        trajectory_deviation([Vec2(0, 0)], [])


# ---------------------------------------------------------------------------
# force magnitude
# ---------------------------------------------------------------------------


# Components where math.hypot takes another branch or rounds at an edge:
# zeros of both signs, subnormals, the smallest normal and its neighbour,
# EPS and its neighbour, squares that overflow or underflow, the largest
# float, infinities and NaN.
_EDGE_COMPONENTS = [
    0.0, -0.0, 5e-324, -1e-310, 2.0**-1025, sys.float_info.min,
    math.nextafter(sys.float_info.min, 0.0), 2.0**-1021, 1e-300, 1e-9,
    math.nextafter(1e-9, 0.0), 0.5, -1.0, 3.0, 1.3407807929942596e154, 1e200, 1e308,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
]


def _hypot_bits(force: np.ndarray) -> bytes:
    pairs = force.reshape(-1, 2).tolist()
    return np.array([math.hypot(x, y) for x, y in pairs]).tobytes()


def test_force_magnitude_is_math_hypot_bit_for_bit_on_edge_components():
    xs, ys = np.meshgrid(_EDGE_COMPONENTS, _EDGE_COMPONENTS)
    force = np.stack([xs, ys], axis=-1)
    mag = force_magnitude(force)
    assert mag.shape == xs.shape
    assert mag.tobytes() == _hypot_bits(force)


@pytest.mark.parametrize("kind", ["normal", "any_scale", "near_equal", "any_bits"])
def test_force_magnitude_is_math_hypot_bit_for_bit_on_random_forces(kind):
    rng = np.random.default_rng(["normal", "any_scale", "near_equal", "any_bits"].index(kind))
    n = 200_000
    with np.errstate(all="ignore"):
        if kind == "normal":
            force = rng.normal(size=(n, 2))
        elif kind == "any_scale":
            force = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-320, 309, size=(n, 2))
        elif kind == "near_equal":
            x = rng.normal(size=n)
            force = np.stack([x, x * rng.uniform(0.9, 1.1, size=n)], axis=-1)
        else:  # every finite float, infinities and NaN, of either sign
            force = rng.integers(-(2**63), 2**63, size=(n, 2), dtype=np.int64).view(np.float64)
    assert force_magnitude(force).tobytes() == _hypot_bits(force)

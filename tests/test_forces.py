"""Force-model checks on the production grid update: hand-worked examples on
small grids, a randomized sweep of ``FlowField.update_field`` against the
per-cell reference in oracles.py, and property tests for the bounds and
symmetries the model guarantees (odd in the velocities, equivariant under
swapping the axes, influence normalised by the last frame alone) and, from
a track log through ``fipp extract`` and ``fipp plan``, under a quarter
turn. Examples a grid cannot express (several neighbors at one point)
check the oracle itself."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fipp import FlowField, FlowParams, GridSpec, TrackLog, Vec2
from fipp.cli import main
from fipp.io import read_field, write_track_log
from fipp.sim import generate_scenario, simulate_tracks
from oracles import (
    average_velocity_reference,
    field_force_reference,
    friction_reference,
)
from tracklogs import one_frame


def _obs(ped_id: int, pos: tuple, vel: tuple) -> tuple:
    """A track row: id, x, y, vx, vy."""
    return (ped_id, *pos, *vel)


def _grid(width, height, walkers, cs=1.0, **params) -> FlowField:
    """Field after one frame with a walker at the center of each cell in
    ``walkers`` ({(i, j): velocity}), each cell's estimate then set to its
    walker's velocity, and one update."""
    spec = GridSpec(Vec2(0.0, 0.0), cs, width, height)
    field = FlowField(spec)
    obs = tuple(
        _obs(k, spec.cell_center(i, j).as_tuple(), vel)
        for k, ((i, j), vel) in enumerate(sorted(walkers.items()))
    )
    field.deposit_frame(one_frame(0.0, obs))
    for (i, j), vel in walkers.items():
        field.velocity[j, i] = vel
    field.update_field(FlowParams(**params))
    return field


def _force(field, i, j) -> tuple[float, float]:
    return (float(field.force[j, i, 0]), float(field.force[j, i, 1]))


# ---------------------------------------------------------------------------
# friction
# ---------------------------------------------------------------------------


def test_friction_two_collinear_neighbors():
    # Occupied neighbors of cell (0, 0) at distances 1 and 2:
    # mu = 1 - 3 / (2 * 2) = 0.25.
    field = _grid(3, 1, {(1, 0): (1.0, 0.0), (2, 0): (1.0, 0.0)}, h=2.0)
    assert field.mu[0, 0] == 0.25


def test_friction_equidistant_neighbors_is_zero():
    cross = {(1, 0): (1.0, 0.0), (0, 1): (1.0, 0.0), (2, 1): (1.0, 0.0), (1, 2): (1.0, 0.0)}
    field = _grid(3, 3, cross, h=1.0)
    assert field.mu[1, 1] == 0.0


def test_friction_no_neighbors_is_zero():
    field = _grid(5, 5, {(0, 0): (1.0, 0.0)}, h=1.5)
    assert not field.mu.any()


def test_friction_coincident_neighbors_is_zero():
    # Grid cells never coincide, so this checks the reference formula.
    p = (2.0, 2.0)
    assert friction_reference(p, [p, p, p]) == 0.0


def test_friction_single_neighbor_is_zero():
    # n = 1 forces sum == max, whatever the distance.
    field = _grid(4, 4, {(3, 2): (1.0, 0.0)}, h=5.0)
    assert not field.mu.any()


def test_friction_grows_with_spread():
    # From cell (0, 0): tight neighbors at distances 2 and 3 (mu = 1/6),
    # spread ones at 1 and 3 (mu = 1/3).
    tight = _grid(4, 1, {(2, 0): (1.0, 0.0), (3, 0): (1.0, 0.0)}, h=3.0)
    spread = _grid(4, 1, {(1, 0): (1.0, 0.0), (3, 0): (1.0, 0.0)}, h=3.0)
    assert 0.0 <= tight.mu[0, 0] < spread.mu[0, 0] < 1.0


@settings(deadline=None)
@given(
    width=st.integers(1, 7),
    height=st.integers(1, 7),
    h=st.floats(0.3, 4.0),
    occupied=st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20),
)
def test_friction_stays_in_unit_interval(width, height, h, occupied):
    walkers = {(i, j): (1.0, 0.0) for i, j in occupied if i < width and j < height}
    field = _grid(width, height, walkers, cs=0.5, h=h)
    assert (field.mu >= 0.0).all()
    assert (field.mu < 1.0).all()


# ---------------------------------------------------------------------------
# frame average velocity / relative velocity / interaction coefficient
# ---------------------------------------------------------------------------


def test_frame_avg_speed_is_the_last_frames_componentwise_mean_velocity():
    # The mean of (1, 0), (0, 1) and (2, -1) is (1, 0): speed 1, where the
    # mean of the three speeds would be (2 + 5 ** 0.5) / 3. An empty last
    # frame has mean velocity zero.
    field = FlowField(GridSpec(Vec2(0.0, 0.0), 1.0, 3, 3))
    rows = (
        _obs(0, (0.0, 0.0), (1.0, 0.0)),
        _obs(1, (1.0, 1.0), (0.0, 1.0)),
        _obs(2, (2.0, 2.0), (2.0, -1.0)),
    )
    field.deposit_frame(one_frame(0.0, rows))
    field.update_field(FlowParams())
    assert average_velocity_reference([r[3:] for r in rows]) == (1.0, 0.0)
    assert field.frame_avg_speed == 1.0
    field.deposit_frame(one_frame(0.1, ()))
    field.update_field(FlowParams())
    assert field.frame_avg_speed == 0.0


# The cell probed below, (0, 0), is empty and still: its force is
# alpha * v_rel with alpha = |v_rel| / |frame average velocity|.


def test_relative_velocity_radius_filter():
    # The walker at distance 1 is within h, the one at distance 4 is not.
    # The frame average is (0, 4): v_rel = (3, 0), alpha = 3/4. If the far
    # walker counted, v_rel would be (0, 4) and the force (0, 4).
    walkers = {(1, 0): (3.0, 0.0), (4, 0): (-3.0, 8.0)}
    field = _grid(5, 1, walkers, h=1.0)
    assert _force(field, 0, 0) == (2.25, 0.0)


def test_relative_velocity_boundary_distance_included():
    # Centers exactly h = 1 apart (two cells of 0.5).
    field = _grid(3, 1, {(2, 0): (0.0, 2.0)}, cs=0.5, h=1.0)
    assert _force(field, 0, 0) == (0.0, 2.0)


def test_relative_velocity_is_the_neighbor_mean():
    # Frame average (0.5, 0.5) and v_rel the mean (0.5, 0.5): alpha = 1. A
    # sum would give v_rel = (1, 1), alpha = 2 and a force of (2, 2).
    walkers = {(1, 0): (1.0, 0.0), (0, 1): (0.0, 1.0)}
    field = _grid(2, 2, walkers, h=1.0)
    assert _force(field, 0, 0) == pytest.approx((0.5, 0.5), abs=1e-15)


def test_relative_velocity_no_qualifying_neighbors():
    field = _grid(4, 4, {(3, 3): (1.0, 1.0)}, h=1.0)
    assert _force(field, 0, 0) == (0.0, 0.0)


def test_interaction_coefficient_ratio():
    # v_rel = (1, 0) from the neighbor; the frame average is (2, 0) because
    # of a faster walker out of reach: alpha = 0.5.
    field = _grid(5, 1, {(1, 0): (1.0, 0.0), (4, 0): (3.0, 0.0)}, h=1.0)
    assert _force(field, 0, 0) == (0.5, 0.0)
    # Neighbor and frame average equal: alpha = 1.
    field = _grid(2, 1, {(1, 0): (0.0, 3.0)}, h=1.0)
    assert _force(field, 0, 0) == (0.0, 3.0)


def test_interaction_coefficient_zero_average_guard():
    # Opposite walkers cancel in the frame average: alpha = 0, no influence.
    field = _grid(5, 1, {(1, 0): (1.0, 0.0), (4, 0): (-1.0, 0.0)}, h=1.0)
    assert _force(field, 0, 0) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# total force
# ---------------------------------------------------------------------------


def test_force_uniform_crowd_reduces_to_self_propulsion():
    # The center of a cross of walkers with one velocity: equidistant
    # occupied neighbors (mu = 0) moving at its own velocity (no influence),
    # so F = xi * v.
    v = (1.5, -0.5)
    cross = {(1, 1): v, (1, 0): v, (0, 1): v, (2, 1): v, (1, 2): v}
    field = _grid(3, 3, cross, h=1.0)
    assert _force(field, 1, 1) == (0.75, -0.25)


def test_force_friction_opposes_motion():
    # Cell (0, 0) moves at (2, 0) with mu = 0.25 (neighbors at 1 and 2, all
    # moving alike): -0.25 * 2 + 0 + 0.5 * 2 = 0.5.
    row = {(0, 0): (2.0, 0.0), (1, 0): (2.0, 0.0), (2, 0): (2.0, 0.0)}
    field = _grid(3, 1, row, h=2.0, xi=0.5)
    assert field.mu[0, 0] == 0.25
    assert _force(field, 0, 0) == (0.5, 0.0)


def test_force_all_zero_inputs():
    # Occupied cells whose walkers stand still: friction may be nonzero, but
    # every term scales a zero velocity.
    still = {(0, 0): (0.0, 0.0), (1, 0): (0.0, 0.0), (3, 0): (0.0, 0.0)}
    field = _grid(4, 2, still, h=3.0)
    assert field.mu.any()
    assert not field.force.any()


_component = st.integers(-8, 8).map(lambda k: k / 4.0)


_grid_cases = dict(
    width=st.integers(1, 6),
    height=st.integers(1, 6),
    h=st.floats(0.3, 3.0),
    xi=st.floats(0.0, 2.0),
    walkers=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(_component, _component),
        max_size=12,
    ),
)


@settings(deadline=None)
@given(**_grid_cases, scale=st.floats(0.01, 100.0))
def test_force_is_homogeneous_in_velocities(width, height, h, xi, walkers, scale):
    # Scaling every deposited velocity scales every force by the same factor
    # and leaves the friction unchanged.
    walkers = {c: v for c, v in walkers.items() if c[0] < width and c[1] < height}
    kw = dict(h=h, xi=xi)
    base = _grid(width, height, walkers, cs=0.5, **kw)
    scaled_walkers = {c: (v[0] * scale, v[1] * scale) for c, v in walkers.items()}
    scaled = _grid(width, height, scaled_walkers, cs=0.5, **kw)
    assert np.array_equal(scaled.mu, base.mu)
    np.testing.assert_allclose(scaled.force, base.force * scale, rtol=1e-9, atol=1e-9 * scale)


@settings(deadline=None)
@given(**_grid_cases)
def test_force_is_odd_in_velocities(width, height, h, xi, walkers):
    # Negating every deposited velocity negates every force exactly: each
    # term is a velocity times a factor that depends only on magnitudes.
    walkers = {c: v for c, v in walkers.items() if c[0] < width and c[1] < height}
    kw = dict(h=h, xi=xi)
    base = _grid(width, height, walkers, cs=0.5, **kw)
    negated = _grid(width, height, {c: (-v[0], -v[1]) for c, v in walkers.items()}, cs=0.5, **kw)
    assert np.array_equal(negated.mu, base.mu)
    assert np.array_equal(negated.force, -base.force)


@settings(deadline=None)
@given(**_grid_cases)
def test_force_transposes_with_the_grid(width, height, h, xi, walkers):
    # Swapping the axes (cell (i, j) -> (j, i), velocity (vx, vy) -> (vy, vx))
    # swaps the friction and force fields the same way. The neighbor sums
    # run in another order, so the match is to rounding, not to the bit.
    walkers = {c: v for c, v in walkers.items() if c[0] < width and c[1] < height}
    kw = dict(h=h, xi=xi)
    base = _grid(width, height, walkers, cs=0.5, **kw)
    swapped = _grid(
        height, width, {(j, i): (vy, vx) for (i, j), (vx, vy) in walkers.items()}, cs=0.5, **kw
    )
    np.testing.assert_allclose(swapped.mu, base.mu.T, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        swapped.force, base.force.transpose(1, 0, 2)[..., ::-1], rtol=1e-12, atol=1e-12
    )


@settings(deadline=None)
@given(
    **_grid_cases,
    last=st.lists(
        st.tuples(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.tuples(_component, _component),
        ),
        max_size=4,
    ),
)
def test_last_frame_at_rest_on_average_leaves_no_influence(
    width, height, h, xi, walkers, last
):
    # The interaction coefficient is normalised by the mean velocity of the
    # last deposited frame only. Earlier frames leave moving cells behind;
    # a last frame of opposite pairs (mean exactly zero) switches the
    # neighbor influence off everywhere: F = (xi - mu) * v at every cell.
    spec = GridSpec(Vec2(0.0, 0.0), 0.5, width, height)
    field = FlowField(spec)

    def center(cell):
        return spec.cell_center(min(cell[0], width - 1), min(cell[1], height - 1)).as_tuple()

    early = sorted(walkers.items())
    field.deposit_frame(
        one_frame(0.0, [_obs(k, center(c), v) for k, (c, v) in enumerate(early)])
    )
    rows = []
    for a, b, (vx, vy) in last:
        rows.append(_obs(len(rows), center(a), (vx, vy)))
        rows.append(_obs(len(rows), center(b), (-vx, -vy)))
    field.deposit_frame(one_frame(0.1, rows))
    field.update_field(FlowParams(h=h, xi=xi))
    np.testing.assert_allclose(
        field.force, (xi - field.mu)[..., None] * field.velocity, rtol=1e-12, atol=1e-12
    )


def _plan_cost(plan_path) -> float:
    total = plan_path.read_text().splitlines()[-1]
    return float(total.split("C_phi=")[1].split()[0])


def test_rotating_a_track_log_rotates_the_extracted_field_and_keeps_plan_cost(tmp_path, capsys):
    # A quarter turn about the world centre maps a position (x, y) to
    # (20 - y, x) and a velocity (vx, vy) to (-vy, vx); cell (i, j) of the
    # 40x40 grid lands on cell (39 - j, i). The mirror in the line x = 10
    # maps (x, y) to (20 - x, y) and (vx, vy) to (-vx, vy); cell (i, j)
    # lands on cell (39 - i, j). Extracted through the command line, the
    # field turns and mirrors with the log and the plan between the moved
    # endpoints costs the same, to rounding: the sums run in another order.
    # The expansion counts may differ (A* breaks ties by cell order).
    walked = simulate_tracks(generate_scenario("intersection", seed=1), 30.0)

    def moved(move):
        return TrackLog(walked.t, walked.starts, walked.ids, np.column_stack(move(*walked.state.T)))

    logs = {
        "base": walked,
        "turned": moved(lambda x, y, vx, vy: [20.0 - y, x, -vy, vx]),
        "mirrored": moved(lambda x, y, vx, vy: [20.0 - x, y, -vx, vy]),
    }
    endpoints = {
        "base": ("2.1,3.3", "17.4,15.2"),
        "turned": ("16.7,2.1", "4.8,17.4"),
        "mirrored": ("17.9,3.3", "2.6,15.2"),
    }
    fields, costs = {}, {}
    for name, log in logs.items():
        tracks = tmp_path / f"{name}.csv"
        write_track_log(str(tracks), log)
        out = tmp_path / name
        assert main(["extract", str(tracks), "--out", str(out)]) == 0
        start, goal = endpoints[name]
        field_path = str(out / "field.txt")
        assert main(["plan", field_path, "--start", start, "--goal", goal, "--out", str(out)]) == 0
        fields[name] = read_field(field_path).force
        costs[name] = _plan_cost(out / "plan.txt")
    capsys.readouterr()
    base = fields["base"]
    back = fields["turned"][:, ::-1].transpose(1, 0, 2)  # back[j, i] is turned cell (39 - j, i)
    scale = np.abs(base).max()
    assert scale > 0.1
    np.testing.assert_allclose(back[..., 0], -base[..., 1], rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(back[..., 1], base[..., 0], rtol=1e-12, atol=1e-12 * scale)
    back = fields["mirrored"][:, ::-1]  # back[j, i] is mirrored cell (39 - i, j)
    np.testing.assert_allclose(back[..., 0], -base[..., 0], rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(back[..., 1], base[..., 1], rtol=1e-12, atol=1e-12 * scale)
    assert costs["turned"] == pytest.approx(costs["base"], rel=1e-12)
    assert costs["mirrored"] == pytest.approx(costs["base"], rel=1e-12)


# ---------------------------------------------------------------------------
# Randomized sweep against the reference formulas.
# ---------------------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_inputs_match_reference(seed):
    _check_against_reference(np.random.default_rng(seed), rounds=5)


def test_thousand_random_inputs_match_reference():
    _check_against_reference(np.random.default_rng(20240814), rounds=1000)


def _check_against_reference(rng: np.random.Generator, rounds: int) -> None:
    """Random small grids (influence reach often wider than the grid), a few
    frames of random walkers each, then every cell's mu and force from
    update_field against field_force_reference."""
    for _ in range(rounds):
        width, height = (int(v) for v in rng.integers(1, 7, size=2))
        cs = float(rng.choice([0.25, 0.5, 1.0]))
        params = FlowParams(
            xi=float(rng.uniform(0.0, 1.0)),
            h=float(rng.uniform(0.3, 3.0)),
        )
        field = FlowField(GridSpec(Vec2(0.0, 0.0), cs, width, height))
        for t in range(int(rng.integers(1, 4))):
            n = int(rng.integers(0, 9))
            frame = one_frame(
                0.1 * t,
                tuple(
                    _obs(
                        k,
                        (rng.uniform(0.0, width * cs), rng.uniform(0.0, height * cs)),
                        tuple(rng.uniform(-2.0, 2.0, 2)),
                    )
                    for k in range(n)
                ),
            )
            field.deposit_frame(frame)
        field.update_field(params)

        want = field_force_reference(
            cs,
            field.occupancy.tolist(),
            [[tuple(v) for v in row] for row in field.velocity.tolist()],
            average_velocity_reference([tuple(v) for v in frame.state[:, 2:].tolist()]),
            params.h,
            params.xi,
        )
        for j in range(height):
            for i in range(width):
                mu, (fx, fy) = want[j][i]
                assert _close(field.mu[j, i], mu), (i, j)
                assert _close(field.force[j, i, 0], fx), (i, j)
                assert _close(field.force[j, i, 1], fy), (i, j)

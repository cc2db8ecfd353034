"""Simulator tests: scenario generation, pedestrian stepping (yield rule,
respawn), the array crowd step bit for bit against the walker-by-walker
reference in oracles.py, crowd recording and full episodes under both
planners."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fipp import (
    CostParams,
    Crowd,
    EpisodeLog,
    GridSpec,
    Lane,
    Rect,
    Replanner,
    Scenario,
    TrackLog,
    Vec2,
    generate_scenario,
    ped_step,
    run_episode,
    simulate_tracks,
    tr_step,
)
from fipp import sim
from fipp.sim import (
    BENCH_KINDS,
    CHAOTIC_SPEED,
    LANE_SPEED,
    SCENARIO_KINDS,
    V_MAX,
    WORLD,
    WORLD_SIZE,
    YIELD_DIST,
    YIELD_HALF_ANGLE,
    _swept_cells,
    _wall_ys,
    grid_covering,
    observations,
    spawn_pedestrians,
)
from oracles import ped_step_reference
from tracklogs import columns, head, one_frame


class _QuietRng:
    """Deterministic stand-in: no heading noise, midpoint uniform draws."""

    def __init__(self):
        self.bit_generator = types.SimpleNamespace(state=None)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.zeros(size)

    def uniform(self, low, high):
        return (low + high) / 2.0


def _single_lane():
    return Lane(Rect(0.0, 7.0, 20.0, 13.0), Vec2(1.0, 0.0), LANE_SPEED)


def _crowd(walkers):
    """A crowd from (id, x, y, heading, speed, lane_index) walkers, each
    moving along its heading."""
    rows = [
        (x, y, v * math.cos(h), v * math.sin(h)) for _, x, y, h, v, _ in walkers
    ]
    return Crowd(
        ids=np.array([w[0] for w in walkers], dtype=np.int64),
        state=np.array(rows, dtype=float).reshape(len(walkers), 4),
        heading=np.array([w[3] for w in walkers], dtype=float),
        speed=np.array([w[4] for w in walkers], dtype=float),
        lane=np.array([w[5] for w in walkers], dtype=np.int64),
    )


def _ped(pos, heading=0.0, speed=LANE_SPEED, lane_index=0, ped_id=0):
    return _crowd([(ped_id, *pos, heading, speed, lane_index)])


def _ids(start=100):
    """A fresh-id source for respawns."""
    return itertools.count(start).__next__


def _position(crowd, k=0):
    return Vec2(*crowd.state[k, :2].tolist())


def _velocity(crowd, k=0):
    return Vec2(*crowd.state[k, 2:].tolist())


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------


def test_generate_scenario_deterministic():
    for kind in SCENARIO_KINDS:
        a = generate_scenario(kind, seed=9)
        b = generate_scenario(kind, seed=9)
        assert a.to_dict() == b.to_dict()


def test_generate_scenario_seed_changes_layout():
    a = generate_scenario("chaotic", seed=1)
    b = generate_scenario("chaotic", seed=2)
    assert a.to_dict() != b.to_dict()


def test_generate_scenario_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind must be one of"):
        generate_scenario("vortex")


def test_generate_scenario_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        generate_scenario("single_flow", n_peds=0)


@pytest.mark.parametrize("kind", BENCH_KINDS)
def test_a_given_crowd_size_keeps_the_seeds_lanes_and_endpoints(kind):
    # The crowd-size draw is made whether or not n_peds is given, so every
    # later draw of the seed lands where it would by default.
    for seed in range(1, 6):
        given, drawn = generate_scenario(kind, 40, seed), generate_scenario(kind, None, seed)
        assert given.n_peds == 40
        assert (given.lanes, given.robot_start, given.robot_goal) == (
            drawn.lanes, drawn.robot_start, drawn.robot_goal
        )


def test_single_flow_layout():
    sc = generate_scenario("single_flow", 30, seed=3)
    assert sc.n_peds == 30
    (lane,) = sc.lanes
    assert lane.direction == Vec2(1.0, 0.0)
    assert lane.speed == LANE_SPEED
    assert lane.region.as_list() == [0.0, 7.0, 20.0, 13.0]
    # Start and goal sit on opposite sides of the band.
    low, high = sorted([sc.robot_start.y, sc.robot_goal.y])
    assert low < 7.0 and high > 13.0


def test_double_flow_opposing_lanes():
    sc = generate_scenario("double_flow", 20, seed=5)
    a, b = sc.lanes
    assert (a.direction, b.direction) == (Vec2(1.0, 0.0), Vec2(-1.0, 0.0))
    assert a.region.ymax == b.region.ymin == 10.0


def test_intersection_orthogonal_lanes():
    sc = generate_scenario("intersection", 20, seed=5)
    a, b = sc.lanes
    assert (a.direction, b.direction) == (Vec2(1.0, 0.0), Vec2(0.0, 1.0))
    ends = sorted([sc.robot_start.as_tuple(), sc.robot_goal.as_tuple()])
    assert max(ends[0]) <= 5.5  # one endpoint in the lower-left corner
    assert min(ends[1]) >= 14.5  # the other in the upper-right


def test_chaotic_endpoints_spread_apart():
    for seed in range(1, 6):
        sc = generate_scenario("chaotic", 30, seed=seed)
        assert sc.lanes == ()
        assert sc.robot_start.distance_to(sc.robot_goal) >= 12.0


def test_freeze_wall_layout():
    sc = generate_scenario("freeze_wall", seed=2)
    assert sc.n_peds == len(_wall_ys()) == 36
    assert sc.robot_start.y == sc.robot_goal.y
    assert sc.robot_start.x == 4.0 and sc.robot_goal.x == 16.0
    assert 8.0 <= sc.robot_start.y <= 12.0
    (lane,) = sc.lanes
    assert lane.speed == 0.0


def test_default_ped_count_drawn_from_range():
    for seed in range(4):
        sc = generate_scenario("single_flow", seed=seed)
        assert 25 <= sc.n_peds <= 50


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("single_flow", (), 5, Vec2(-1, 0), Vec2(5, 5), 0)
    with pytest.raises(ValueError):
        Scenario("waves", (), 5, Vec2(1, 1), Vec2(5, 5), 0)


def test_lane_validation_and_regions():
    with pytest.raises(ValueError):
        Lane(Rect(0, 0, 10, 4), Vec2(2.0, 0.0), 1.0)  # not unit length
    lane = _single_lane()
    placement = lane.placement_region()
    assert placement.as_list() == [0.5, 7.5, 19.5, 12.5]
    spawn = lane.spawn_region()
    assert spawn.as_list() == [0.5, 7.5, 2.5, 12.5]  # upstream slab
    back = Lane(Rect(0.0, 7.0, 20.0, 13.0), Vec2(-1.0, 0.0), 1.0)
    assert back.spawn_region().as_list() == [17.5, 7.5, 19.5, 12.5]


# ---------------------------------------------------------------------------
# spawning
# ---------------------------------------------------------------------------


def test_spawn_laned_pedestrians():
    sc = generate_scenario("single_flow", 30, seed=3)
    peds = spawn_pedestrians(sc, np.random.default_rng([3, 1]))
    assert len(peds) == 30
    assert peds.ids.tolist() == list(range(30))
    region = sc.lanes[0].placement_region()
    for k in range(len(peds)):
        assert region.contains(_position(peds, k))
        assert _velocity(peds, k) == Vec2(LANE_SPEED, 0.0)
    assert (peds.lane == 0).all()


def test_spawn_round_robin_across_lanes():
    sc = generate_scenario("double_flow", 10, seed=3)
    peds = spawn_pedestrians(sc, np.random.default_rng([3, 1]))
    assert peds.lane.tolist() == [0, 1] * 5
    for k, lane_index in enumerate(peds.lane.tolist()):
        assert sc.lanes[lane_index].placement_region().contains(_position(peds, k))
    # Lane velocities are direction * speed: exactly (-1.2, 0) upstream.
    assert _velocity(peds, 1) == Vec2(-LANE_SPEED, 0.0)


def test_spawn_chaotic_pedestrians():
    sc = generate_scenario("chaotic", 12, seed=3)
    peds = spawn_pedestrians(sc, np.random.default_rng([3, 1]))
    assert len(peds) == 12
    assert (peds.lane == -1).all()
    for k in range(len(peds)):
        assert _velocity(peds, k).magnitude() == pytest.approx(CHAOTIC_SPEED)


def test_spawn_freeze_wall():
    sc = generate_scenario("freeze_wall", seed=1)
    peds = spawn_pedestrians(sc, np.random.default_rng([1, 1]))
    assert peds.state[:, 0].tolist() == [10.0] * 36
    assert peds.state[:, 1].tolist() == [float(y) for y in _wall_ys()]
    assert (peds.speed == 0.0).all()


def test_observations_mirror_pedestrians():
    peds = _crowd([(7, 1.0, 2.0, 0.0, LANE_SPEED, 0), (9, 3.0, 4.0, 0.0, LANE_SPEED, 0)])
    obs = observations(peds, 0.5)
    assert obs.t.tolist() == [0.5] and obs.starts.tolist() == [0]
    assert obs.ids.tolist() == [7, 9]
    assert obs.state[:, :2].tolist() == [[1.0, 2.0], [3.0, 4.0]]
    # The frame keeps its values when the crowd steps on.
    ped_step(peds, (_single_lane(),), None, _QuietRng(), _ids())
    assert obs.state[:, :2].tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert not obs.state.flags.writeable


# ---------------------------------------------------------------------------
# pedestrian stepping
# ---------------------------------------------------------------------------


def test_ped_step_walks_along_lane():
    ped = _ped((5.0, 10.0))
    ped_step(ped, (_single_lane(),), None, _QuietRng(), _ids())
    assert _position(ped).x == pytest.approx(5.12, abs=1e-12)
    assert _position(ped).y == 10.0
    assert _velocity(ped) == Vec2(LANE_SPEED, 0.0)


def test_ped_step_yields_to_robot_ahead():
    ped = _ped((5.0, 10.0))
    ped_step(ped, (_single_lane(),), Vec2(5.3, 10.0), _QuietRng(), _ids())
    assert _position(ped) == Vec2(5.0, 10.0)
    assert _velocity(ped) == Vec2(0.0, 0.0)


def test_ped_step_yield_boundary_distance():
    ped = _ped((5.0, 10.0))
    ped_step(ped, (_single_lane(),), Vec2(5.5, 10.0), _QuietRng(), _ids())
    assert _position(ped) == Vec2(5.0, 10.0)  # exactly at the yield distance


def test_ped_step_ignores_robot_behind():
    ped = _ped((5.0, 10.0))
    ped_step(ped, (_single_lane(),), Vec2(4.7, 10.0), _QuietRng(), _ids())
    assert _position(ped).x > 5.0


def test_ped_step_ignores_robot_outside_cone():
    angle = math.radians(80.0)  # outside the +-60 degree cone
    robot = Vec2(5.0 + 0.3 * math.cos(angle), 10.0 + 0.3 * math.sin(angle))
    ped = _ped((5.0, 10.0))
    ped_step(ped, (_single_lane(),), robot, _QuietRng(), _ids())
    assert _position(ped).x > 5.0


def test_ped_step_chaotic_keeps_heading():
    ped = _ped((5.0, 5.0), heading=math.pi / 2, speed=1.0, lane_index=-1)
    ped_step(ped, (), None, _QuietRng(), _ids())
    assert ped.heading[0] == math.pi / 2
    assert _position(ped).y == pytest.approx(5.1, abs=1e-12)
    assert _position(ped).x == pytest.approx(5.0, abs=1e-12)


def test_ped_step_respawns_upstream_with_fresh_id():
    counter = itertools.count(100)
    ped = _ped((19.95, 10.0), ped_id=3)
    respawned = ped_step(ped, (_single_lane(),), None, _QuietRng(), counter.__next__)
    assert respawned == [0]
    assert ped.ids.tolist() == [100]
    assert _position(ped) == Vec2(1.5, 10.0)  # midpoint of the upstream slab
    assert _velocity(ped) == Vec2(LANE_SPEED, 0.0)


# ---------------------------------------------------------------------------
# the crowd step against the per-walker reference
# ---------------------------------------------------------------------------

_LANE_SETS = {kind: generate_scenario(kind, 10, seed=1).lanes for kind in SCENARIO_KINDS}


def test_reference_uses_the_simulator_constants():
    import oracles

    assert oracles.HEADING_NOISE_STD == sim.HEADING_NOISE_STD
    assert oracles.YIELD_DIST == YIELD_DIST
    assert oracles.YIELD_HALF_ANGLE == YIELD_HALF_ANGLE


def test_batched_normal_draws_equal_scalar_draws():
    # The crowd step relies on this: one batch of n draws is the same n
    # numbers, bit for bit, as n single draws, and leaves the same state.
    batch_rng, scalar_rng = np.random.default_rng(5), np.random.default_rng(5)
    batch = batch_rng.normal(0.0, sim.HEADING_NOISE_STD, 1000)
    scalar = [float(scalar_rng.normal(0.0, sim.HEADING_NOISE_STD)) for _ in range(1000)]
    assert batch.tolist() == scalar
    assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state


def _walkers(crowd):
    return [
        {"id": i, "x": x, "y": y, "vx": vx, "vy": vy, "heading": h, "speed": v}
        for i, (x, y, vx, vy), h, v in zip(
            crowd.ids.tolist(), crowd.state.tolist(), crowd.heading.tolist(), crowd.speed.tolist()
        )
    ]


def _reference_lanes(lanes):
    return [
        ((lane.direction.x, lane.direction.y), lane.speed, tuple(lane.spawn_region().as_list()))
        for lane in lanes
    ]


def _reference_crowd_step(walkers, lane_index, lanes, robot, rng, next_id):
    """Step walker by walker by SIM_DT in WORLD; returns the indices that
    respawned."""
    ref_lanes = _reference_lanes(lanes)
    robot_xy = None if robot is None else (robot.x, robot.y)
    respawned = []
    for k, w in enumerate(walkers):
        old_id = w["id"]
        lane = ref_lanes[lane_index[k]] if lane_index[k] >= 0 else None
        ped_step_reference(w, lane, robot_xy, sim.SIM_DT, rng, tuple(WORLD.as_list()), next_id)
        if w["id"] != old_id:
            respawned.append(k)
    return respawned


def _assert_crowd_equals_walkers(crowd, walkers):
    """Bit for bit, signed zeros included."""
    assert crowd.ids.tolist() == [w["id"] for w in walkers]
    want = np.array([[w["x"], w["y"], w["vx"], w["vy"]] for w in walkers], dtype=float)
    assert crowd.state.tobytes() == want.reshape(len(walkers), 4).tobytes()
    assert crowd.heading.tobytes() == np.array([w["heading"] for w in walkers]).tobytes()


def _check_step_against_reference(crowd, lanes, robot, seed):
    walkers = _walkers(crowd)
    lane_index = crowd.lane.tolist()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ids, ref_ids = itertools.count(1000), itertools.count(1000)
    respawned = ped_step(crowd, lanes, robot, rng, ids.__next__)
    ref_respawned = _reference_crowd_step(
        walkers, lane_index, lanes, robot, ref_rng, ref_ids.__next__
    )
    assert respawned == ref_respawned
    _assert_crowd_equals_walkers(crowd, walkers)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return respawned


_coord = st.one_of(
    st.floats(0.0, 20.0),
    st.sampled_from([0.0, 0.01, 0.05, 0.5, 10.0, 19.5, 19.95, 19.99, 20.0]),
)


@st.composite
def _crowds(draw):
    kind = draw(st.sampled_from(SCENARIO_KINDS))
    lanes = _LANE_SETS[kind]
    n = draw(st.integers(0, 12))
    walkers = [
        (
            k,
            draw(_coord),
            draw(_coord),
            draw(st.floats(-math.pi, math.pi)),
            draw(st.sampled_from([0.0, CHAOTIC_SPEED, LANE_SPEED, 0.7])),
            draw(st.integers(-1, len(lanes) - 1)),
        )
        for k in range(n)
    ]
    return _crowd(walkers), lanes


@settings(max_examples=300, deadline=None)
@given(
    crowd_lanes=_crowds(),
    robot=st.one_of(
        st.none(),
        st.builds(Vec2, st.floats(0.0, 20.0), st.floats(0.0, 20.0)),
        st.tuples(st.integers(0, 11), st.floats(0.0, 0.6), st.floats(-math.pi, math.pi)),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_crowd_step_matches_per_walker_reference(crowd_lanes, robot, seed):
    # Laned, chaotic and mixed crowds, walkers on and just inside the
    # border (several respawns in one step), and robots anywhere or close
    # to one walker, where the yield rule decides.
    crowd, lanes = crowd_lanes
    if isinstance(robot, tuple):
        k, dist, angle = robot
        if len(crowd) == 0:
            robot = None
        else:
            x, y = crowd.state[k % len(crowd), :2].tolist()
            robot = Vec2(x + dist * math.cos(angle), y + dist * math.sin(angle))
    _check_step_against_reference(crowd, lanes, robot, seed)


def test_crowd_step_with_several_respawns_in_one_step():
    # Walkers 1, 3 and 4 step out of bounds: each respawn's draws sit
    # between its own noise and the next walker's, as in a walker loop.
    lanes = _LANE_SETS["intersection"]
    crowd = _crowd([
        (0, 5.0, 10.0, 0.0, LANE_SPEED, 0),
        (1, 19.99, 10.0, 0.0, LANE_SPEED, 0),
        (2, 10.0, 5.0, 0.0, LANE_SPEED, 1),
        (3, 10.0, 19.99, 0.0, LANE_SPEED, 1),
        (4, 0.01, 0.02, -2.5, CHAOTIC_SPEED, -1),
        (5, 3.0, 3.0, 0.4, CHAOTIC_SPEED, -1),
    ])
    assert _check_step_against_reference(crowd, lanes, None, seed=17) == [1, 3, 4]
    assert crowd.ids.tolist() == [0, 1000, 2, 1001, 1002, 5]


@pytest.mark.parametrize("edge", [-1.0, 1.0])
def test_crowd_step_yield_on_the_cone_edge_and_at_yield_dist(edge):
    # The robot sits exactly YIELD_DIST ahead of walker 0 (a dyadic
    # position, so the distance is exact) and on the cone edge of walker
    # 1, whose noisy heading is known from the generator's second draw.
    lanes = (_single_lane(),)
    seed = 23
    noise = np.random.default_rng(seed).normal(0.0, sim.HEADING_NOISE_STD, 2)
    h1 = 0.7 + noise[1]
    x1, y1 = 8.0, 10.0
    cone = h1 + edge * YIELD_HALF_ANGLE
    for dist in (0.1, 0.3, YIELD_DIST):
        robot = Vec2(x1 + dist * math.cos(cone), y1 + dist * math.sin(cone))
        crowd = _crowd([
            (0, robot.x - YIELD_DIST, robot.y, 0.0, LANE_SPEED, 0),
            (1, x1, y1, 0.7, CHAOTIC_SPEED, -1),
        ])
        _check_step_against_reference(crowd, lanes, robot, seed)
    crowd = _crowd([(0, 5.0, 10.0, 0.0, LANE_SPEED, 0)])
    robot = Vec2(5.0 + YIELD_DIST, 10.0)
    assert math.hypot(5.0 - robot.x, 0.0) == YIELD_DIST
    _check_step_against_reference(crowd, lanes, robot, seed)


def _reference_tracks(scenario, duration, drain):
    """simulate_tracks stepped walker by walker with the reference."""
    crowd = spawn_pedestrians(scenario, np.random.default_rng([scenario.seed, 1]))
    walkers = _walkers(crowd)
    lane_index = crowd.lane.tolist()
    rng = np.random.default_rng([scenario.seed, 2])
    next_id = itertools.count(len(walkers)).__next__

    def frame(t):
        rows = [(w["id"], w["x"], w["y"], w["vx"], w["vy"]) for w in walkers]
        return one_frame(t, rows)

    frames = [frame(0.0)]
    steps = round(duration / sim.SIM_DT)
    cap = steps + round(sim.DRAIN_CAP / sim.SIM_DT)
    k = 0
    while k < steps or (drain and walkers and k < cap):
        k += 1
        respawned = _reference_crowd_step(walkers, lane_index, scenario.lanes, None, rng, next_id)
        if k > steps:
            walkers = [w for i, w in enumerate(walkers) if i not in respawned]
            lane_index = [v for i, v in enumerate(lane_index) if i not in respawned]
        frames.append(frame(k * sim.SIM_DT))
    return TrackLog.concat(frames)


@pytest.mark.parametrize(
    "kind,n_peds,duration",
    [("single_flow", 8, 2.0), ("intersection", 12, 3.0), ("chaotic", 10, 2.0)],
)
def test_simulate_tracks_matches_reference_with_drain(kind, n_peds, duration):
    sc = generate_scenario(kind, n_peds, seed=4)
    got = simulate_tracks(sc, duration, drain=True)
    want = _reference_tracks(sc, duration, drain=True)
    assert columns(got) == columns(want)


# ---------------------------------------------------------------------------
# crowd recording
# ---------------------------------------------------------------------------


def test_simulate_tracks_shape_and_determinism():
    sc = generate_scenario("single_flow", 10, seed=1)
    log = simulate_tracks(sc, 2.0)
    assert log.t.size == 21
    assert [round(t, 6) for t in log.t[:3].tolist()] == [0.0, 0.1, 0.2]
    assert log.starts.tolist() == list(range(0, 210, 10))  # 10 walkers a frame
    assert log.ids.size == 210
    assert columns(simulate_tracks(sc, 2.0)) == columns(log)


def test_simulate_tracks_positions_stay_in_bounds():
    sc = generate_scenario("chaotic", 15, seed=2)
    for x, y in simulate_tracks(sc, 3.0).state[:, :2].tolist():
        assert WORLD.contains(Vec2(x, y))


def test_simulate_tracks_drain_empties_scene():
    sc = generate_scenario("single_flow", 8, seed=3)
    log = simulate_tracks(sc, 2.0, drain=True)
    starts = log.starts.tolist()
    assert len(starts) > 21
    assert starts[-1] == log.ids.size  # the last frame is empty
    # Nobody new enters once the clear-out starts.
    recorded_ids = set(log.ids[starts[20] : starts[21]].tolist())
    assert set(log.ids[starts[21] :].tolist()) <= recorded_ids


def test_simulate_tracks_drain_cap_for_crowds_that_stay():
    sc = generate_scenario("freeze_wall", seed=1)
    log = simulate_tracks(sc, 1.0, drain=True)
    assert log.t.size == 1 + 10 + 600  # initial + recording + capped clear-out
    assert log.ids.size - log.starts[-1] == 36


def test_simulate_tracks_validation():
    sc = generate_scenario("single_flow", 5, seed=1)
    with pytest.raises(ValueError):
        simulate_tracks(sc, 0.0)
    with pytest.raises(ValueError):
        simulate_tracks(sc, -1.0)


def test_swept_cells_cover_prediction_horizon():
    spec = GridSpec(Vec2(0.0, 0.0), 0.5, 40, 40)
    obs = one_frame(0.0, [(0, 5.0, 5.0, 1.2, 0.0)])
    cells = _swept_cells(obs, spec)
    assert spec.cell_of(Vec2(5.0, 5.0)) in cells
    assert spec.cell_of(Vec2(5.6, 5.0)) in cells
    assert spec.cell_of(Vec2(6.2, 5.0)) in cells


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(-3.0, 23.0),
            st.floats(-3.0, 23.0),
            st.floats(-1.5, 1.5),
            st.floats(-1.5, 1.5),
        ),
        max_size=30,
    ),
    cell_size=st.sampled_from([0.25, 0.5, 0.7, 1.0]),
)
def test_swept_and_occupied_cells_match_per_point_cell_of(rows, cell_size):
    # The array cell lookup against GridSpec.cell_of point by point,
    # points off the grid (clamped to its border cells) included.
    spec = GridSpec(Vec2(0.0, 0.0), cell_size, round(20.0 / cell_size), round(20.0 / cell_size))
    frame = one_frame(0.0, [(k, *r) for k, r in enumerate(rows)])
    swept = {
        spec.cell_of(Vec2(x + t * vx, y + t * vy))
        for x, y, vx, vy in rows
        for t in (0.0, 0.5 * sim.PREDICT_HORIZON, sim.PREDICT_HORIZON)
    }
    assert _swept_cells(frame, spec) == swept
    assert spec.cells_of(frame.state[:, :2]) == {spec.cell_of(Vec2(px, py)) for px, py, _, _ in rows}


@pytest.mark.parametrize("cell_size,cells", [(0.5, 40), (0.25, 80), (0.35, 58), (7.0, 3)])
def test_grid_covering_takes_the_fewest_cells_that_cover_the_world(cell_size, cells):
    spec = grid_covering(cell_size)
    assert (spec.origin, spec.cell_size) == (Vec2(0.0, 0.0), cell_size)
    assert spec.width == spec.height == cells
    assert (cells - 1) * cell_size < WORLD_SIZE <= cells * cell_size


@pytest.mark.parametrize("cell_size", [0.0, -0.5, math.nan, math.inf])
def test_grid_covering_rejects_a_cell_size_naming_it(cell_size):
    with pytest.raises(ValueError, match="^cell_size must be"):
        grid_covering(cell_size)


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------


def test_parameter_surface_is_pinned():
    # Everything else the planner and the episode loop use is a module
    # constant; a new setting must be added here on purpose.
    assert [f.name for f in dataclasses.fields(CostParams)] == ["lambda_flow"]
    assert list(inspect.signature(run_episode).parameters) == [
        "scenario", "planner", "max_t", "flow_params", "cost_params", "cell_size",
    ]
    assert list(inspect.signature(Replanner).parameters) == ["params", "flow_params"]
    assert list(inspect.signature(tr_step).parameters) == ["position", "heading", "peds", "goal"]
    # The world and the step are sim.WORLD and sim.SIM_DT, never arguments.
    assert list(inspect.signature(ped_step).parameters) == [
        "crowd", "lanes", "robot", "rng", "next_id",
    ]
    assert list(inspect.signature(grid_covering).parameters) == ["cell_size"]
    assert "bounds" not in {f.name for f in dataclasses.fields(Scenario)}
    assert "sim_dt" not in {f.name for f in dataclasses.fields(EpisodeLog)}


def test_run_episode_validation():
    sc = generate_scenario("single_flow", 10, seed=1)
    with pytest.raises(ValueError) as exc:
        run_episode(sc, "rrt")
    assert str(exc.value) == "planner must be one of ('fipp', 'tr'), got 'rrt'"
    with pytest.raises(ValueError):
        run_episode(sc, "fipp", max_t=0.0)
    # The grid is checked for both planners, though only fipp uses it.
    for planner in ("fipp", "tr"):
        for cell_size in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="cell_size"):
                run_episode(sc, planner, cell_size=cell_size)


def test_run_episode_deterministic():
    sc = generate_scenario("single_flow", 20, seed=5)
    for planner in ("fipp", "tr"):
        a = run_episode(sc, planner, max_t=15.0)
        b = run_episode(sc, planner, max_t=15.0)
        assert columns(a.crowd) == columns(b.crowd)
        assert a.robot.tobytes() == b.robot.tobytes()
        assert a.outcome == b.outcome


def test_run_episode_respects_speed_caps():
    sc = generate_scenario("double_flow", 20, seed=7)
    for planner in ("fipp", "tr"):
        log = run_episode(sc, planner, max_t=10.0)
        for vx, vy in log.robot[:, 2:].tolist():
            assert math.hypot(vx, vy) <= V_MAX + 1e-9
        for vx, vy in log.crowd.state[:, 2:].tolist():
            assert math.hypot(vx, vy) <= LANE_SPEED + 1e-9


def test_run_episode_reaches_nearby_goal():
    sc = Scenario(
        kind="chaotic",
        lanes=(),
        n_peds=1,
        robot_start=Vec2(2.0, 2.0),
        robot_goal=Vec2(6.0, 2.0),
        seed=1,
    )
    for planner in ("fipp", "tr"):
        log = run_episode(sc, planner, max_t=30.0)
        assert log.outcome == "reached", planner
        assert log.crowd.t[-1] <= 10.0
        end = Vec2(*log.robot[-1, :2].tolist())
        assert end.distance_to(sc.robot_goal) <= 0.25


def test_run_episode_falls_back_to_occupied_cells_when_the_sweep_seals_every_route(
    monkeypatch,
):
    # A sweep that covers the whole grid leaves no route; the robot then
    # plans around the cells people stand in now and still gets there.
    calls = []

    def every_cell(frame, spec):
        calls.append(frame.t)
        return {(i, j) for i in range(spec.width) for j in range(spec.height)}

    monkeypatch.setattr(sim, "_swept_cells", every_cell)
    sc = Scenario(
        kind="chaotic",
        lanes=(),
        n_peds=3,
        robot_start=Vec2(2.0, 2.0),
        robot_goal=Vec2(6.0, 2.0),
        seed=1,
    )
    log = run_episode(sc, "fipp", max_t=30.0)
    assert calls
    assert log.error is None
    assert log.outcome == "reached"


@pytest.mark.parametrize("sealed", [False, True], ids=["sweep", "sealed-sweep"])
def test_run_episode_deposits_each_frame_once_in_step_order_at_replans(monkeypatch, sealed):
    # The replanner queues each step's frame. A step that replans deposits
    # the queue in one call and updates the field, its only reader, once.
    # When the sweep seals every route, the swept plan raises NoPathError
    # and the same step plans again around the occupied cells, on that field.
    from fipp import planner
    from fipp.flowfield import FlowField

    swept_cells, plan = sim._swept_cells, planner.plan
    deposit_frame, update_field = FlowField.deposit_frame, FlowField.update_field
    steps, deposited, calls, replan_steps, plan_steps = [], [], [], [], []

    def swept(frame, spec):
        steps.append(frame)
        if sealed:
            return {(i, j) for i in range(spec.width) for j in range(spec.height)}
        return swept_cells(frame, spec)

    def deposit(self, log):
        calls.append("deposit")
        deposited.append(log)
        return deposit_frame(self, log)

    def update(self, params):
        calls.append("update")
        replan_steps.append(len(steps))
        # Every frame up to this step's, each once and in step order.
        assert columns(TrackLog.concat(deposited)) == columns(TrackLog.concat(steps))
        update_field(self, params)

    def planned(*args, **kwargs):
        plan_steps.append(len(steps))
        return plan(*args, **kwargs)

    monkeypatch.setattr(sim, "_swept_cells", swept)
    monkeypatch.setattr(FlowField, "deposit_frame", deposit)
    monkeypatch.setattr(FlowField, "update_field", update)
    monkeypatch.setattr(planner, "plan", planned)
    if sealed:
        sc = Scenario(
            kind="chaotic", lanes=(), n_peds=3, robot_start=Vec2(2.0, 2.0),
            robot_goal=Vec2(6.0, 2.0), seed=1,
        )
        log = run_episode(sc, "fipp", max_t=30.0)
        assert log.error is None and log.outcome == "reached"
        # Some step planned twice: the sealed sweep, then the occupied cells.
        assert len(plan_steps) > len(replan_steps)
    else:
        log = run_episode(generate_scenario("single_flow", 10, seed=2), "fipp", max_t=5.0)
    # One field update in each step that plans, and in no other.
    assert replan_steps == sorted(set(plan_steps))
    assert calls == ["deposit", "update"] * len(replan_steps)
    frames = TrackLog.concat(deposited).t.size
    assert replan_steps[-1] == frames < log.crowd.t.size
    assert columns(TrackLog.concat(deposited)) == columns(head(log.crowd, frames))


def test_run_episode_crossing_moves_with_the_stream():
    # Goal downstream inside the lane: the flow-informed robot's mean motion
    # points along the lane direction.
    sc = Scenario(
        kind="single_flow",
        lanes=(_single_lane(),),
        n_peds=20,
        robot_start=Vec2(2.0, 10.0),
        robot_goal=Vec2(18.0, 10.0),
        seed=4,
    )
    log = run_episode(sc, "fipp")
    assert log.outcome == "reached"
    vx = log.robot[1:, 2].tolist()
    assert sum(vx) / len(vx) > 0.0


def test_run_episode_freeze_detection():
    sc = generate_scenario("freeze_wall", seed=1)
    log = run_episode(sc, "tr")
    assert log.outcome == "frozen"
    # The freeze verdict comes after sustained zero commands, not instantly.
    assert log.crowd.t[-1] >= 10.0
    assert (log.robot[-5:, 2:] == 0.0).all()


def test_run_episode_fipp_crosses_the_wall():
    sc = generate_scenario("freeze_wall", seed=1)
    log = run_episode(sc, "fipp")
    assert log.outcome == "reached"


def test_episode_log_carries_scenario_and_timing():
    sc = generate_scenario("single_flow", 10, seed=2)
    log = run_episode(sc, "tr", max_t=5.0)
    assert isinstance(log, EpisodeLog)
    assert log.scenario == sc
    assert log.planner == "tr"
    assert log.crowd.t[0] == 0.0
    assert log.crowd.t[1] == pytest.approx(0.1)
    assert log.max_t == 5.0


def test_episode_log_rejects_no_frames_and_robot_rows_that_disagree_with_them():
    # An episode has at least one frame and one robot row x, y, vx, vy per
    # frame; the metrics and the writer rely on both.
    sc = generate_scenario("chaotic", 3, seed=1)
    log = run_episode(sc, "tr", max_t=1.0)
    with pytest.raises(ValueError, match="^empty episode log$"):
        EpisodeLog(sc, "tr", 1.0, TrackLog.concat([]), np.empty((0, 4)), "timeout")
    for robot in (log.robot[:-1], log.robot[:, :3], np.vstack([log.robot, log.robot[-1:]]),
                  log.robot.ravel()):
        with pytest.raises(ValueError, match="one robot row x, y, vx, vy per crowd frame"):
            EpisodeLog(sc, "tr", 1.0, log.crowd, robot, "timeout")
        with pytest.raises(ValueError, match="one robot row x, y, vx, vy per crowd frame"):
            dataclasses.replace(log, robot=robot)
    with pytest.raises(ValueError, match="one robot row x, y, vx, vy per crowd frame"):
        dataclasses.replace(log, crowd=head(log.crowd, log.crowd.t.size - 1))


def test_run_episode_records_a_poisoned_field_as_the_planner_error(monkeypatch):
    # A non-finite force is an input error, not "no path": the episode goes
    # on with the robot held still and names the cell on the log.
    from fipp.flowfield import FlowField

    update = FlowField.update_field

    def poisoned_update(self, params):
        update(self, params)
        self.force[3, 5] = (math.nan, 0.0)

    monkeypatch.setattr(FlowField, "update_field", poisoned_update)
    sc = generate_scenario("single_flow", 10, seed=2)
    log = run_episode(sc, "fipp", max_t=2.0)
    assert log.error == (
        "ValueError: force (nan, 0.0) at cell (5, 3) gives a non-finite edge cost"
    )
    assert (log.robot[:, 2:] == 0.0).all()

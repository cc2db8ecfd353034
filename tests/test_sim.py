"""Simulator tests: scenario generation, pedestrian stepping (yield rule,
respawn), crowd recording and full episodes under both planners."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fipp import (
    EpisodeLog,
    Lane,
    Pedestrian,
    Rect,
    Scenario,
    Vec2,
    generate_scenario,
    ped_step,
    run_episode,
    simulate_tracks,
)
from fipp.sim import (
    CHAOTIC_SPEED,
    LANE_SPEED,
    SCENARIO_KINDS,
    V_MAX,
    _swept_cells,
    _wall_ys,
    observations,
    spawn_pedestrians,
)


class _QuietRng:
    """Deterministic stand-in: no heading noise, midpoint uniform draws."""

    def normal(self, loc=0.0, scale=1.0):
        return 0.0

    def uniform(self, low, high):
        return (low + high) / 2.0


def _single_lane():
    return Lane(Rect(0.0, 7.0, 20.0, 13.0), Vec2(1.0, 0.0), LANE_SPEED)


def _ped(pos, heading=0.0, speed=LANE_SPEED, lane_index=0, ped_id=0):
    return Pedestrian(
        id=ped_id,
        position=Vec2(*pos),
        heading=heading,
        speed=speed,
        velocity=Vec2(speed * math.cos(heading), speed * math.sin(heading)),
        lane_index=lane_index,
    )


BOUNDS = Rect(0.0, 0.0, 20.0, 20.0)


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
    with pytest.raises(ValueError):
        generate_scenario("vortex")


def test_generate_scenario_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        generate_scenario("single_flow", n_peds=0)


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
    assert a.direction.dot(b.direction) == -1.0
    assert a.region.ymax == b.region.ymin == 10.0


def test_intersection_orthogonal_lanes():
    sc = generate_scenario("intersection", 20, seed=5)
    a, b = sc.lanes
    assert a.direction.dot(b.direction) == 0.0
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


def test_scenario_dict_round_trip():
    for kind in SCENARIO_KINDS:
        sc = generate_scenario(kind, seed=6)
        assert Scenario.from_dict(sc.to_dict()) == sc


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("single_flow", BOUNDS, (), 5, Vec2(-1, 0), Vec2(5, 5), 0)
    with pytest.raises(ValueError):
        Scenario("waves", BOUNDS, (), 5, Vec2(1, 1), Vec2(5, 5), 0)


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
    region = sc.lanes[0].placement_region()
    for p in peds:
        assert region.contains(p.position)
        assert p.velocity == Vec2(LANE_SPEED, 0.0)
        assert p.lane_index == 0


def test_spawn_round_robin_across_lanes():
    sc = generate_scenario("double_flow", 10, seed=3)
    peds = spawn_pedestrians(sc, np.random.default_rng([3, 1]))
    assert [p.lane_index for p in peds] == [0, 1] * 5
    for p in peds:
        assert sc.lanes[p.lane_index].placement_region().contains(p.position)


def test_spawn_chaotic_pedestrians():
    sc = generate_scenario("chaotic", 12, seed=3)
    peds = spawn_pedestrians(sc, np.random.default_rng([3, 1]))
    assert len(peds) == 12
    for p in peds:
        assert p.lane_index == -1
        assert p.velocity.magnitude() == pytest.approx(CHAOTIC_SPEED)


def test_spawn_freeze_wall():
    sc = generate_scenario("freeze_wall", seed=1)
    peds = spawn_pedestrians(sc, np.random.default_rng([1, 1]))
    assert [p.position.x for p in peds] == [10.0] * 36
    assert [p.position.y for p in peds] == [float(y) for y in _wall_ys()]
    assert all(p.speed == 0.0 for p in peds)


def test_observations_mirror_pedestrians():
    peds = [_ped((1.0, 2.0), ped_id=7), _ped((3.0, 4.0), ped_id=9)]
    obs = observations(peds)
    assert [(o.id, o.position) for o in obs] == [(7, Vec2(1.0, 2.0)), (9, Vec2(3.0, 4.0))]


# ---------------------------------------------------------------------------
# pedestrian stepping
# ---------------------------------------------------------------------------


def test_ped_step_walks_along_lane():
    ped = _ped((5.0, 10.0))
    ped_step(ped, _single_lane(), None, 0.1, _QuietRng(), BOUNDS)
    assert ped.position.x == pytest.approx(5.12, abs=1e-12)
    assert ped.position.y == 10.0
    assert ped.velocity == Vec2(LANE_SPEED, 0.0)


def test_ped_step_yields_to_robot_ahead():
    ped = _ped((5.0, 10.0))
    ped_step(ped, _single_lane(), Vec2(5.3, 10.0), 0.1, _QuietRng(), BOUNDS)
    assert ped.position == Vec2(5.0, 10.0)
    assert ped.velocity == Vec2(0.0, 0.0)


def test_ped_step_yield_boundary_distance():
    ped = _ped((5.0, 10.0))
    ped_step(ped, _single_lane(), Vec2(5.5, 10.0), 0.1, _QuietRng(), BOUNDS)
    assert ped.position == Vec2(5.0, 10.0)  # exactly at the yield distance


def test_ped_step_ignores_robot_behind():
    ped = _ped((5.0, 10.0))
    ped_step(ped, _single_lane(), Vec2(4.7, 10.0), 0.1, _QuietRng(), BOUNDS)
    assert ped.position.x > 5.0


def test_ped_step_ignores_robot_outside_cone():
    angle = math.radians(80.0)  # outside the +-60 degree cone
    robot = Vec2(5.0 + 0.3 * math.cos(angle), 10.0 + 0.3 * math.sin(angle))
    ped = _ped((5.0, 10.0))
    ped_step(ped, _single_lane(), robot, 0.1, _QuietRng(), BOUNDS)
    assert ped.position.x > 5.0


def test_ped_step_chaotic_keeps_heading():
    ped = _ped((5.0, 5.0), heading=math.pi / 2, speed=1.0, lane_index=-1)
    ped_step(ped, None, None, 0.1, _QuietRng(), BOUNDS)
    assert ped.heading == math.pi / 2
    assert ped.position.y == pytest.approx(5.1, abs=1e-12)
    assert ped.position.x == pytest.approx(5.0, abs=1e-12)


def test_ped_step_respawns_upstream_with_fresh_id():
    import itertools

    counter = itertools.count(100)
    ped = _ped((19.95, 10.0), ped_id=3)
    ped_step(ped, _single_lane(), None, 0.1, _QuietRng(), BOUNDS, counter.__next__)
    assert ped.id == 100
    assert ped.position == Vec2(1.5, 10.0)  # midpoint of the upstream slab
    assert ped.velocity == Vec2(LANE_SPEED, 0.0)


def test_ped_step_validation():
    with pytest.raises(ValueError):
        ped_step(_ped((1.0, 1.0)), _single_lane(), None, 0.0, _QuietRng(), BOUNDS)


# ---------------------------------------------------------------------------
# crowd recording
# ---------------------------------------------------------------------------


def test_simulate_tracks_shape_and_determinism():
    sc = generate_scenario("single_flow", 10, seed=1)
    frames = simulate_tracks(sc, 2.0)
    assert len(frames) == 21
    assert [round(f.t, 6) for f in frames[:3]] == [0.0, 0.1, 0.2]
    assert all(len(f.observations) == 10 for f in frames)
    again = simulate_tracks(sc, 2.0)
    assert again == frames


def test_simulate_tracks_positions_stay_in_bounds():
    sc = generate_scenario("chaotic", 15, seed=2)
    for frame in simulate_tracks(sc, 3.0):
        for o in frame.observations:
            assert sc.bounds.contains(o.position)


def test_simulate_tracks_drain_empties_scene():
    sc = generate_scenario("single_flow", 8, seed=3)
    frames = simulate_tracks(sc, 2.0, drain=True)
    assert len(frames) > 21
    assert frames[-1].observations == ()
    # Nobody new enters once the clear-out starts.
    recorded_ids = {o.id for o in frames[20].observations}
    for frame in frames[21:]:
        assert {o.id for o in frame.observations} <= recorded_ids


def test_simulate_tracks_drain_cap_for_crowds_that_stay():
    sc = generate_scenario("freeze_wall", seed=1)
    frames = simulate_tracks(sc, 1.0, drain=True)
    assert len(frames) == 1 + 10 + 600  # initial + recording + capped clear-out
    assert len(frames[-1].observations) == 36


def test_simulate_tracks_validation():
    sc = generate_scenario("single_flow", 5, seed=1)
    with pytest.raises(ValueError):
        simulate_tracks(sc, 0.0)
    with pytest.raises(ValueError):
        simulate_tracks(sc, 1.0, sim_dt=-0.1)


def test_swept_cells_cover_prediction_horizon():
    from fipp import GridSpec, PedObservation

    spec = GridSpec(Vec2(0.0, 0.0), 0.5, 40, 40)
    obs = (PedObservation(0, Vec2(5.0, 5.0), Vec2(1.2, 0.0)),)
    cells = _swept_cells(obs, spec)
    assert spec.cell_of(Vec2(5.0, 5.0)) in cells
    assert spec.cell_of(Vec2(5.6, 5.0)) in cells
    assert spec.cell_of(Vec2(6.2, 5.0)) in cells


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------


def test_run_episode_validation():
    sc = generate_scenario("single_flow", 10, seed=1)
    with pytest.raises(ValueError):
        run_episode(sc, "rrt")
    with pytest.raises(ValueError):
        run_episode(sc, "fipp", sim_dt=0.0)


def test_run_episode_deterministic():
    sc = generate_scenario("single_flow", 20, seed=5)
    for planner in ("fipp", "tr"):
        a = run_episode(sc, planner, max_t=15.0)
        b = run_episode(sc, planner, max_t=15.0)
        assert a.records == b.records
        assert a.outcome == b.outcome


def test_run_episode_respects_speed_caps():
    sc = generate_scenario("double_flow", 20, seed=7)
    for planner in ("fipp", "tr"):
        log = run_episode(sc, planner, max_t=10.0)
        for rec in log.records:
            assert math.hypot(rec.robot_vx, rec.robot_vy) <= V_MAX + 1e-9
            for o in rec.peds:
                assert o.velocity.magnitude() <= LANE_SPEED + 1e-9


def test_run_episode_reaches_nearby_goal():
    sc = Scenario(
        kind="chaotic",
        bounds=BOUNDS,
        lanes=(),
        n_peds=1,
        robot_start=Vec2(2.0, 2.0),
        robot_goal=Vec2(6.0, 2.0),
        seed=1,
    )
    for planner in ("fipp", "tr"):
        log = run_episode(sc, planner, max_t=30.0)
        assert log.outcome == "reached", planner
        assert log.records[-1].t <= 10.0
        end = Vec2(log.records[-1].robot_x, log.records[-1].robot_y)
        assert end.distance_to(sc.robot_goal) <= 0.25


def test_run_episode_crossing_moves_with_the_stream():
    # Goal downstream inside the lane: the flow-informed robot's mean motion
    # points along the lane direction.
    sc = Scenario(
        kind="single_flow",
        bounds=BOUNDS,
        lanes=(_single_lane(),),
        n_peds=20,
        robot_start=Vec2(2.0, 10.0),
        robot_goal=Vec2(18.0, 10.0),
        seed=4,
    )
    log = run_episode(sc, "fipp")
    assert log.outcome == "reached"
    vx = [rec.robot_vx for rec in log.records[1:]]
    assert sum(vx) / len(vx) > 0.0


def test_run_episode_freeze_detection():
    sc = generate_scenario("freeze_wall", seed=1)
    log = run_episode(sc, "tr")
    assert log.outcome == "frozen"
    # The freeze verdict comes after sustained zero commands, not instantly.
    assert log.records[-1].t >= 10.0
    tail = log.records[-5:]
    assert all(r.robot_vx == 0.0 and r.robot_vy == 0.0 for r in tail)


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
    assert log.records[0].t == 0.0
    assert log.records[1].t == pytest.approx(0.1)
    assert log.max_t == 5.0


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
    assert all(r.robot_vx == 0.0 and r.robot_vy == 0.0 for r in log.records)

"""Trajectory-rollout baseline tests: unicycle kinematics, the cached
rollout arcs, obstacle prediction, and the candidate selection step, whose
scoring is checked against the reference rollouts and scores in
oracles.py."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fipp import Vec2, baseline_tr, sim, tr_step
from fipp.baseline_tr import (
    CANDIDATES,
    CLEARANCE_CAP,
    CLEARANCE_WEIGHT,
    COLLISION_RADIUS,
    GOAL_WEIGHT,
    N_STEPS,
    PREDICT_HORIZON,
    ROLLOUT_DT,
    _clearances,
    _local_trajectories,
    predict_obstacles,
    step_unicycle,
)
from oracles import clearance_reference, rollout_reference, rollout_score_reference

# The baseline's constants in the attribute form the reference oracles read.
PARAMS = SimpleNamespace(
    n_steps=N_STEPS,
    sim_dt=ROLLOUT_DT,
    goal_weight=GOAL_WEIGHT,
    clearance_weight=CLEARANCE_WEIGHT,
    collision_radius=COLLISION_RADIUS,
    clearance_cap=CLEARANCE_CAP,
)


def _obs(ped_id, pos, vel):
    """One pedestrian row x, y, vx, vy (the id only labels it here)."""
    return (*pos, *vel)


def _rows(peds):
    """Pedestrian rows as tr_step takes them: an (n, 4) array."""
    return np.array(peds, dtype=float).reshape(len(peds), 4)


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------


def test_unicycle_straight_line():
    x, y, h = step_unicycle(0.0, 0.0, 0.0, (1.0, 0.0), 0.5)
    assert (x, y, h) == (0.5, 0.0, 0.0)
    x, y, h = step_unicycle(1.0, 2.0, math.pi / 2, (2.0, 0.0), 0.25)
    assert x == pytest.approx(1.0, abs=1e-12)
    assert y == pytest.approx(2.5, abs=1e-12)


def test_unicycle_quarter_circle():
    # One second at 1 m/s turning pi/2 rad/s sweeps a quarter of a circle of
    # radius 2/pi: endpoint (2/pi, 2/pi).
    x, y, h = step_unicycle(0.0, 0.0, 0.0, (1.0, math.pi / 2), 1.0)
    assert x == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert y == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert h == pytest.approx(math.pi / 2, abs=1e-12)


def test_unicycle_half_circle_u_turn():
    x, y, h = step_unicycle(0.0, 0.0, 0.0, (1.0, math.pi), 1.0)
    assert x == pytest.approx(0.0, abs=1e-12)
    assert y == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert h == pytest.approx(math.pi, abs=1e-12)


def test_unicycle_turn_in_place():
    x, y, h = step_unicycle(3.0, 4.0, 0.1, (0.0, math.pi / 4), 0.5)
    assert (x, y) == (3.0, 4.0)
    assert h == pytest.approx(0.1 + math.pi / 8)


def test_unicycle_arc_matches_many_small_steps():
    # The exact constant-twist step equals the limit of fine Euler steps.
    cmd = (1.0, 1.0)
    x1, y1, h1 = step_unicycle(0.0, 0.0, 0.3, cmd, 1.0)
    x2, y2, h2 = 0.0, 0.0, 0.3
    n = 200000
    for _ in range(n):
        x2 += cmd[0] * (1.0 / n) * math.cos(h2)
        y2 += cmd[0] * (1.0 / n) * math.sin(h2)
        h2 += cmd[1] * (1.0 / n)
    assert x1 == pytest.approx(x2, abs=1e-4)
    assert y1 == pytest.approx(y2, abs=1e-4)


# ---------------------------------------------------------------------------
# rollout / predict_obstacles
# ---------------------------------------------------------------------------


def test_rollout_point_count_and_start():
    # Rollouts are cached as arcs from the origin at heading 0, one per
    # candidate; the full-speed straight one ends one horizon ahead.
    local = _local_trajectories()
    assert local.shape == (len(CANDIDATES), N_STEPS + 1, 2)
    assert not local[:, 0].any()
    straight = local[CANDIDATES.index((1.0, 0.0))]
    assert straight[-1].tolist() == pytest.approx([PREDICT_HORIZON, 0.0], abs=1e-12)


def test_rollout_zero_command_stays_put():
    assert not _local_trajectories()[CANDIDATES.index((0.0, 0.0))].any()


def test_rollouts_match_reference_arcs():
    local = _local_trajectories()
    for c, cmd in enumerate(CANDIDATES):
        want = rollout_reference((0.0, 0.0, 0.0), cmd, PARAMS)
        np.testing.assert_allclose(local[c], want, rtol=0.0, atol=1e-12)


def test_default_candidates_cover_stop_and_full_speed():
    assert (0.0, 0.0) in CANDIDATES
    assert (1.0, 0.0) in CANDIDATES
    assert len(CANDIDATES) == 15


def test_candidates_stay_within_the_robot_speed_limit():
    # The episode loop executes the chosen command as it is, unclamped.
    assert max(speed for speed, _ in CANDIDATES) <= sim.V_MAX


def test_predict_obstacles_constant_velocity():
    peds = [_obs(0, (1.0, 1.0), (1.0, 0.0)), _obs(1, (0.0, 0.0), (0.0, -2.0))]
    out = predict_obstacles(_rows(peds), n_steps=2, dt=0.5)
    assert out.shape == (3, 2, 2)
    assert np.allclose(out[:, 0], [[1.0, 1.0], [1.5, 1.0], [2.0, 1.0]])
    assert np.allclose(out[:, 1], [[0.0, 0.0], [0.0, -1.0], [0.0, -2.0]])


def test_predict_obstacles_empty():
    out = predict_obstacles(_rows([]), n_steps=3, dt=0.1)
    assert out.shape == (4, 0, 2)
    assert out.dtype == np.float64


# ---------------------------------------------------------------------------
# scoring: hand-worked values of the reference, and tr_step against it
# ---------------------------------------------------------------------------


def _peds(peds):
    """Pedestrians as the reference takes them: (position, velocity) pairs."""
    return [((x, y), (vx, vy)) for x, y, vx, vy in peds]


def _reference_scores(position, heading, peds, goal):
    pose = (position.x, position.y, heading)
    return [
        rollout_score_reference(rollout_reference(pose, cmd, PARAMS), _peds(peds),
                                goal.as_tuple(), PARAMS)
        for cmd in CANDIDATES
    ]


def test_score_open_space_is_goal_distance_minus_capped_clearance():
    s = rollout_score_reference([(0.0, 0.0), (1.0, 0.0)], [], (4.0, 0.0), PARAMS)
    assert s == pytest.approx(3.0 - CLEARANCE_WEIGHT * CLEARANCE_CAP)


def test_score_rejects_collision():
    # A pedestrian standing 0.1 m beside where the straight rollout ends.
    origin = Vec2(0.0, 0.0)
    blocker = [_obs(0, (1.0, 0.1), (0.0, 0.0))]
    traj = [(0.1 * k, 0.0) for k in range(N_STEPS + 1)]
    assert rollout_score_reference(traj, _peds(blocker), (4.0, 0.0), PARAMS) == math.inf
    cmd = tr_step(origin, 0.0, _rows(blocker), Vec2(4.0, 0.0))
    scores = _reference_scores(origin, 0.0, blocker, Vec2(4.0, 0.0))
    assert cmd != (1.0, 0.0)
    assert math.isfinite(scores[CANDIDATES.index(cmd)])


def test_score_clearance_capped():
    # Beyond the cap, extra clearance buys nothing: every candidate scores
    # the same with a bystander 3 m or 30 m away, and tr_step picks the same.
    origin = Vec2(0.0, 0.0)
    goal = Vec2(4.0, 0.0)
    near = [_obs(0, (1.0, 3.0), (0.0, 0.0))]
    far = [_obs(0, (1.0, 30.0), (0.0, 0.0))]
    assert _reference_scores(origin, 0.0, near, goal) == _reference_scores(
        origin, 0.0, far, goal
    )
    assert tr_step(origin, 0.0, _rows(near), goal) == tr_step(origin, 0.0, _rows(far), goal)
    # A bystander at least 2.1 m from every full-speed rollout: the
    # straight one makes the most progress and wins, although veering
    # right would win if clearance were not capped.
    goal = Vec2(5.0, -1.0)
    bystander = [_obs(0, (2.5, 1.5), (0.0, 0.0))]
    uncapped = SimpleNamespace(**{**vars(PARAMS), "clearance_cap": math.inf})
    veer = [
        rollout_score_reference(rollout_reference((0.0, 0.0, 0.0), cmd, uncapped),
                                _peds(bystander), goal.as_tuple(), uncapped)
        for cmd in CANDIDATES
    ]
    assert CANDIDATES[veer.index(min(veer))] == (1.0, -math.pi / 4)
    assert tr_step(origin, 0.0, _rows(bystander), goal) == (1.0, 0.0)


def test_score_prefers_progress():
    goal = (10.0, 0.0)
    closer = rollout_score_reference([(0.0, 0.0), (1.0, 0.0)], [], goal, PARAMS)
    farther = rollout_score_reference([(0.0, 0.0), (0.2, 0.0)], [], goal, PARAMS)
    assert closer < farther


def test_score_uses_moving_obstacle_positions():
    # A pedestrian walking into the straight rollout's endpoint rejects it
    # even though the start positions are clear; standing still, the same
    # pedestrian leaves the straight command the best one.
    origin = Vec2(0.0, 0.0)
    goal = Vec2(5.0, 0.0)
    straight = CANDIDATES.index((1.0, 0.0))
    walker = [_obs(0, (2.0, 0.0), (-1.0, 0.0))]  # meets the robot head on
    assert _reference_scores(origin, 0.0, walker, goal)[straight] == math.inf
    assert tr_step(origin, 0.0, _rows(walker), goal) != (1.0, 0.0)
    standing = [_obs(0, (2.0, 0.0), (0.0, 0.0))]
    assert tr_step(origin, 0.0, _rows(standing), goal) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# tr_step
# ---------------------------------------------------------------------------


def test_tr_step_open_space_drives_straight_at_goal():
    cmd = tr_step(Vec2(2.0, 2.0), 0.0, _rows([]), Vec2(12.0, 2.0))
    assert cmd == (1.0, 0.0)


def test_tr_step_surrounded_freezes():
    ring = [
        _obs(k, (5.0 + 0.25 * math.cos(a), 5.0 + 0.25 * math.sin(a)), (0.0, 0.0))
        for k, a in enumerate(np.linspace(0.0, 2 * math.pi, 12, endpoint=False))
    ]
    assert tr_step(Vec2(5.0, 5.0), 0.0, _rows(ring), Vec2(15.0, 5.0)) == (0.0, 0.0)


def test_tr_step_turns_away_from_blocker():
    blocker = [_obs(0, (2.6, 2.0), (0.0, 0.0))]  # dead ahead
    cmd = tr_step(Vec2(2.0, 2.0), 0.0, _rows(blocker), Vec2(12.0, 2.0))
    assert cmd != (1.0, 0.0)
    assert cmd[0] > 0.0  # keeps moving rather than freezing


def test_tr_step_matches_scalar_scoring():
    # The vectorized selection must pick a candidate whose reference score
    # is optimal (ties broken the same way). Pedestrians are drawn within
    # 3 m of the robot, so the collision radius and the clearance term
    # decide some of the choices; the counts below make sure they do.
    rng = np.random.default_rng(11)
    frozen = steered = 0
    for _ in range(200):
        position = Vec2(*rng.uniform(3.0, 17.0, 2))
        heading = float(rng.uniform(-math.pi, math.pi))
        goal = Vec2(*rng.uniform(1.0, 19.0, 2))
        peds = [
            _obs(
                k,
                tuple(position.as_tuple() + rng.uniform(-3.0, 3.0, 2)),
                tuple(rng.uniform(-1.2, 1.2, 2)),
            )
            for k in range(int(rng.integers(0, 7)))
        ]
        scores = _reference_scores(position, heading, peds, goal)
        best = min(scores)
        chosen = tr_step(position, heading, _rows(peds), goal)
        if math.isinf(best):
            assert chosen == (0.0, 0.0)
            frozen += 1
        else:
            assert scores[CANDIDATES.index(chosen)] <= best + 1e-9
            unobstructed = _reference_scores(position, heading, [], goal)
            steered += scores.index(best) != unobstructed.index(min(unobstructed))
    assert frozen > 0 and steered > 0


def test_tr_step_zero_speed_scores_tie_on_first_candidate():
    # All-zero-progress situations fall back to the first candidate, which
    # is the stop command.
    cmd = tr_step(Vec2(5.0, 5.0), 0.0, _rows([]), Vec2(5.0, 5.0))
    assert cmd == (0.0, 0.0)


# tr_step scores a pedestrian only when its distance to the robot, less its
# own travel over the horizon, is within this cut (plus 1e-6): the clearance
# cap plus the farthest a rollout reaches.
CUT = CLEARANCE_CAP + max(speed for speed, _ in CANDIDATES) * PREDICT_HORIZON

_world = st.floats(0.0, sim.WORLD_SIZE)
_angle = st.floats(-math.pi, math.pi)


@st.composite
def _crowds(draw):
    """A robot pose anywhere in the world, a goal anywhere in it or on the
    line the robot faces along, and a crowd of three parts: walkers anywhere
    in the world, walkers within 2.5 m of the robot (so some rollouts
    collide and some cases freeze), and walkers placed on the cut: at its
    distance exactly, just inside it, just beyond it or up to 1.5 m inside
    it, mostly heading for the robot."""
    position = Vec2(draw(_world), draw(_world))
    heading = draw(_angle)
    if draw(st.booleans()):
        goal = Vec2(draw(_world), draw(_world))
    else:
        # On the robot's heading line: mirrored turns tie on the goal term,
        # so the tie rule below is exercised.
        ahead = heading + draw(st.sampled_from((0.0, math.pi)))
        d = draw(st.floats(0.5, 15.0))
        goal = Vec2(position.x + d * math.cos(ahead), position.y + d * math.sin(ahead))
    velocity = st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
    far = draw(st.lists(st.tuples(_world, _world, velocity), max_size=30))
    peds = [(x, y, *v) for x, y, v in far]
    near = draw(st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5), velocity),
                         max_size=4))
    peds += [(position.x + dx, position.y + dy, *v) for dx, dy, v in near]
    for bearing, speed, aim, offset in draw(st.lists(st.tuples(
        _angle,
        st.floats(0.0, 1.2),
        st.floats(-math.pi / 2, math.pi / 2),
        st.one_of(st.sampled_from((-1e-3, -1e-6, 0.0, 1e-6, 2e-6, 1e-3)), st.floats(-1.5, 0.0)),
    ), max_size=6)):
        r = CUT + speed * PREDICT_HORIZON + offset
        away = bearing + math.pi + aim  # aim 0 walks straight at the robot
        peds.append((position.x + r * math.cos(bearing), position.y + r * math.sin(bearing),
                     speed * math.cos(away), speed * math.sin(away)))
    return position, heading, goal, peds


def test_tr_step_choice_is_optimal_over_the_whole_crowd():
    # tr_step leaves out the pedestrians beyond the cut; its choice must
    # still be optimal under the reference, which scores every pedestrian.
    # Rollouts that are the same points (the turn rates at zero speed) tie
    # exactly, and the first of them wins; when every candidate collides the
    # command is (0, 0).
    counts = {"frozen": 0, "steered": 0}
    rollouts = [rollout_reference((0.0, 0.0, 0.0), cmd, PARAMS) for cmd in CANDIDATES]
    # Reference scores at a collision radius 1e-9 either side of the real
    # one: a case whose collision test the two disagree on is a knife edge
    # that rounding decides, and is skipped.
    inner = SimpleNamespace(**{**vars(PARAMS), "collision_radius": COLLISION_RADIUS - 1e-9})
    outer = SimpleNamespace(**{**vars(PARAMS), "collision_radius": COLLISION_RADIUS + 1e-9})

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_crowds())
    def check(case):
        position, heading, goal, peds = case
        pose = (position.x, position.y, heading)
        ref = [rollout_reference(pose, cmd, PARAMS) for cmd in CANDIDATES]
        scores = [rollout_score_reference(r, _peds(peds), goal.as_tuple(), outer) for r in ref]
        inside = [rollout_score_reference(r, _peds(peds), goal.as_tuple(), inner) for r in ref]
        assume([math.isinf(s) for s in scores] == [math.isinf(s) for s in inside])
        chosen = tr_step(position, heading, _rows(peds), goal)
        best = min(scores)
        if math.isinf(best):
            assert chosen == (0.0, 0.0)
            counts["frozen"] += 1
            return
        c = CANDIDATES.index(chosen)
        ties = [k for k, s in enumerate(scores) if s <= best + 1e-9]
        assert c in ties
        assert all(rollouts[k] != rollouts[c] for k in ties if k < c)
        unobstructed = _reference_scores(position, heading, [], goal)
        counts["steered"] += ties[0] != unobstructed.index(min(unobstructed))

    check()
    assert counts["frozen"] > 0 and counts["steered"] > 0, counts


@pytest.mark.parametrize("inside,bearing", [(0.3, -20.0), (0.05, 0.0)])
def test_a_walker_inside_the_cut_only_by_its_own_travel_decides_the_choice(inside, bearing):
    # A walker heading for the robot at 1.2 m/s starts `inside` metres
    # within the cut once its own travel is counted, so more than CUT from
    # the robot. Alone it tips the choice from straight on to the left turn:
    # the straight rollout ends nearest it, and the goal 14 degrees left of
    # the heading has the two nearly tied.
    position, goal = Vec2(10.0, 10.0), Vec2(10.0 + 8.0 * math.cos(math.radians(14.0)),
                                            10.0 + 8.0 * math.sin(math.radians(14.0)))
    speed, b = 1.2, math.radians(bearing)
    r = CUT + speed * PREDICT_HORIZON - inside
    walker = [(position.x + r * math.cos(b), position.y + r * math.sin(b),
               -speed * math.cos(b), -speed * math.sin(b))]
    assert r > CUT
    assert tr_step(position, 0.0, _rows([]), goal) == (1.0, 0.0)
    scores = _reference_scores(position, 0.0, walker, goal)
    assert CANDIDATES[scores.index(min(scores))] == (1.0, math.pi / 4)
    assert tr_step(position, 0.0, _rows(walker), goal) == (1.0, math.pi / 4)


# ---------------------------------------------------------------------------
# clearances: bit for bit against the scalar loop
# ---------------------------------------------------------------------------


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_clearances_match_the_scalar_loop_bit_for_bit(monkeypatch):
    # tr_step takes the root of each rollout's least squared distance; the
    # reference takes every distance's root and then the least. The two
    # must agree in every bit, on exactly what tr_step passes (its kept
    # crowd, which is often empty) and on the whole crowd. tr_step refuses
    # a crowd holding a NaN, so the whole crowd, with a NaN put into some
    # crowds, goes to _clearances directly.
    seen = []

    def spy(trajs, obstacles):
        got = _clearances(trajs, obstacles)
        seen.append((trajs, obstacles, got))
        return got

    monkeypatch.setattr(baseline_tr, "_clearances", spy)
    counts = {"empty": 0, "crowd": 0, "nan": 0}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_crowds(), st.one_of(st.none(), st.integers(0, 3)))
    def check(case, nan_column):
        position, heading, goal, peds = case
        rows = _rows(peds)
        seen.clear()
        tr_step(position, heading, rows, goal)
        (trajs, kept, got), = seen
        if nan_column is not None and len(rows):
            rows[0, nan_column] = math.nan
        whole = predict_obstacles(rows, N_STEPS, ROLLOUT_DT)
        whole_clearances = _clearances(trajs, whole)
        for obstacles, clearances in ((kept, got), (whole, whole_clearances)):
            want = clearance_reference(trajs.tolist(), obstacles.tolist())
            assert (_bits(clearances) == _bits(want)).all()
        counts["empty"] += kept.shape[1] == 0
        counts["crowd"] += kept.shape[1] > 0 and not np.isnan(got).any()
        counts["nan"] += bool(np.isnan(whole_clearances).all())

    check()
    assert min(counts.values()) > 0, counts


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 1, 2, 3], ids=["x", "y", "vx", "vy"])
def test_tr_step_rejects_a_non_finite_crowd_naming_the_first_bad_row(column, value):
    # Far from the robot, so the old reach cut dropped a bad position, and
    # a NaN anywhere made every score NaN and froze the robot.
    rows = _rows([(3.0, 3.0, 0.0, 0.0), (19.0, 19.0, 0.5, 0.0), (18.0, 19.0, 0.0, 0.5)])
    rows[1, column] = value
    rows[2, column] = value
    with pytest.raises(ValueError) as info:
        tr_step(Vec2(2.0, 2.0), 0.0, rows, Vec2(12.0, 2.0))
    assert str(info.value) == f"pedestrian row 1 is not finite: {rows[1].tolist()}"


@pytest.mark.parametrize("distance", [COLLISION_RADIUS, CLEARANCE_CAP])
def test_clearance_of_a_walker_exactly_at_a_threshold_is_that_threshold(distance):
    # A walker standing `distance` to the left of the fifth point of the
    # straight rollout along the x axis: its clearance is the threshold to
    # the bit (the root of the rounded square of a float is that float),
    # so the collision test keeps a walker exactly COLLISION_RADIUS away,
    # and one exactly CLEARANCE_CAP away scores the cap.
    straight = CANDIDATES.index((1.0, 0.0))
    trajs = _local_trajectories()
    x, y = trajs[straight, 5]
    assert y == 0.0
    obstacles = predict_obstacles(_rows([(x, distance, 0.0, 0.0)]), N_STEPS, ROLLOUT_DT)
    got = _clearances(trajs, obstacles)
    assert got[straight] == distance
    assert (_bits(got) == _bits(clearance_reference(trajs.tolist(), obstacles.tolist()))).all()

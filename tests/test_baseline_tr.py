"""Trajectory-rollout baseline tests: unicycle kinematics, the cached
rollout arcs, obstacle prediction, and the candidate selection step, whose
scoring is checked against the reference rollouts and scores in
oracles.py."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fipp import RobotState, RolloutParams, Vec2, tr_step
from fipp.baseline_tr import (
    DEFAULT_CANDIDATES,
    _local_trajectories,
    predict_obstacles,
    step_unicycle,
)
from oracles import rollout_reference, rollout_score_reference


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
    params = RolloutParams()
    local = _local_trajectories(params)
    assert local.shape == (len(params.candidates), params.n_steps + 1, 2)
    assert not local[:, 0].any()
    straight = local[params.candidates.index((1.0, 0.0))]
    assert straight[-1].tolist() == pytest.approx([params.horizon, 0.0], abs=1e-12)


def test_rollout_zero_command_stays_put():
    params = RolloutParams()
    assert not _local_trajectories(params)[params.candidates.index((0.0, 0.0))].any()


def test_rollouts_match_reference_arcs():
    params = RolloutParams(sim_dt=0.25, horizon=1.5)
    local = _local_trajectories(params)
    for c, cmd in enumerate(params.candidates):
        want = rollout_reference((0.0, 0.0, 0.0), cmd, params)
        np.testing.assert_allclose(local[c], want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"horizon": math.nan}, "horizon"),
        ({"sim_dt": math.inf}, "sim_dt"),
        ({"clearance_weight": math.nan}, "clearance_weight"),
        ({"goal_weight": -math.inf}, "goal_weight"),
        ({"collision_radius": math.nan}, "collision_radius"),
        ({"clearance_cap": math.inf}, "clearance_cap"),
        ({"candidates": ((0.0, 0.0), (1.0, math.nan))}, r"candidates\[1\]\[1\]"),
    ],
)
def test_rollout_params_reject_non_finite_values_naming_them(kwargs, name):
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number"):
        RolloutParams(**kwargs)


def test_rollout_params_validation():
    with pytest.raises(ValueError):
        RolloutParams(horizon=0.0)
    with pytest.raises(ValueError):
        RolloutParams(collision_radius=0.0)
    with pytest.raises(ValueError):
        RolloutParams(candidates=())


def test_default_candidates_cover_stop_and_full_speed():
    assert (0.0, 0.0) in DEFAULT_CANDIDATES
    assert (1.0, 0.0) in DEFAULT_CANDIDATES
    assert len(DEFAULT_CANDIDATES) == 15


def test_predict_obstacles_constant_velocity():
    peds = [_obs(0, (1.0, 1.0), (1.0, 0.0)), _obs(1, (0.0, 0.0), (0.0, -2.0))]
    out = predict_obstacles(_rows(peds), n_steps=2, dt=0.5)
    assert out.shape == (3, 2, 2)
    assert np.allclose(out[:, 0], [[1.0, 1.0], [1.5, 1.0], [2.0, 1.0]])
    assert np.allclose(out[:, 1], [[0.0, 0.0], [0.0, -1.0], [0.0, -2.0]])


def test_predict_obstacles_empty():
    out = predict_obstacles(_rows([]), n_steps=3, dt=0.1)
    assert out.shape == (4, 0, 2)


# ---------------------------------------------------------------------------
# scoring: hand-worked values of the reference, and tr_step against it
# ---------------------------------------------------------------------------


def _peds(peds):
    """Pedestrians as the reference takes them: (position, velocity) pairs."""
    return [((x, y), (vx, vy)) for x, y, vx, vy in peds]


def _reference_scores(state, peds, goal, params):
    pose = (state.position.x, state.position.y, state.heading)
    return [
        rollout_score_reference(rollout_reference(pose, cmd, params), _peds(peds),
                                goal.as_tuple(), params)
        for cmd in params.candidates
    ]


def test_score_open_space_is_goal_distance_minus_capped_clearance():
    params = RolloutParams()
    s = rollout_score_reference([(0.0, 0.0), (1.0, 0.0)], [], (4.0, 0.0), params)
    assert s == pytest.approx(3.0 - params.clearance_weight * params.clearance_cap)


def test_score_rejects_collision():
    # A pedestrian standing 0.1 m beside where the straight rollout ends.
    params = RolloutParams()
    blocker = [_obs(0, (1.0, 0.1), (0.0, 0.0))]
    traj = [(0.1 * k, 0.0) for k in range(params.n_steps + 1)]
    assert rollout_score_reference(traj, _peds(blocker), (4.0, 0.0), params) == math.inf
    state = RobotState(Vec2(0.0, 0.0), heading=0.0)
    cmd = tr_step(state, _rows(blocker), Vec2(4.0, 0.0), params)
    scores = _reference_scores(state, blocker, Vec2(4.0, 0.0), params)
    assert cmd != (1.0, 0.0)
    assert math.isfinite(scores[params.candidates.index(cmd)])


def test_score_clearance_capped():
    # Beyond the cap, extra clearance buys nothing: every candidate scores
    # the same with a bystander 3 m or 30 m away, and tr_step picks the same.
    params = RolloutParams()
    state = RobotState(Vec2(0.0, 0.0), heading=0.0)
    goal = Vec2(4.0, 0.0)
    near = [_obs(0, (1.0, 3.0), (0.0, 0.0))]
    far = [_obs(0, (1.0, 30.0), (0.0, 0.0))]
    assert _reference_scores(state, near, goal, params) == _reference_scores(
        state, far, goal, params
    )
    assert tr_step(state, _rows(near), goal, params) == tr_step(state, _rows(far), goal, params)


def test_score_prefers_progress():
    params = RolloutParams()
    goal = (10.0, 0.0)
    closer = rollout_score_reference([(0.0, 0.0), (1.0, 0.0)], [], goal, params)
    farther = rollout_score_reference([(0.0, 0.0), (0.2, 0.0)], [], goal, params)
    assert closer < farther


def test_score_uses_moving_obstacle_positions():
    # A pedestrian walking into the straight rollout's endpoint rejects it
    # even though the start positions are clear; standing still, the same
    # pedestrian leaves the straight command the best one.
    params = RolloutParams()
    state = RobotState(Vec2(0.0, 0.0), 0.0)
    goal = Vec2(5.0, 0.0)
    straight = params.candidates.index((1.0, 0.0))
    walker = [_obs(0, (2.0, 0.0), (-1.0, 0.0))]  # meets the robot head on
    assert _reference_scores(state, walker, goal, params)[straight] == math.inf
    assert tr_step(state, _rows(walker), goal, params) != (1.0, 0.0)
    standing = [_obs(0, (2.0, 0.0), (0.0, 0.0))]
    assert tr_step(state, _rows(standing), goal, params) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# tr_step
# ---------------------------------------------------------------------------


def test_tr_step_open_space_drives_straight_at_goal():
    state = RobotState(Vec2(2.0, 2.0), heading=0.0)
    cmd = tr_step(state, _rows([]), Vec2(12.0, 2.0), RolloutParams())
    assert cmd == (1.0, 0.0)


def test_tr_step_surrounded_freezes():
    state = RobotState(Vec2(5.0, 5.0), heading=0.0)
    ring = [
        _obs(k, (5.0 + 0.25 * math.cos(a), 5.0 + 0.25 * math.sin(a)), (0.0, 0.0))
        for k, a in enumerate(np.linspace(0.0, 2 * math.pi, 12, endpoint=False))
    ]
    assert tr_step(state, _rows(ring), Vec2(15.0, 5.0), RolloutParams()) == (0.0, 0.0)


def test_tr_step_turns_away_from_blocker():
    state = RobotState(Vec2(2.0, 2.0), heading=0.0)
    blocker = [_obs(0, (2.6, 2.0), (0.0, 0.0))]  # dead ahead
    cmd = tr_step(state, _rows(blocker), Vec2(12.0, 2.0), RolloutParams())
    assert cmd != (1.0, 0.0)
    assert cmd[0] > 0.0  # keeps moving rather than freezing


def test_tr_step_matches_scalar_scoring():
    # The vectorized selection must pick a candidate whose reference score
    # is optimal (ties broken the same way).
    # Pedestrians are drawn within 3 m of the robot, and the weights, cap
    # and radius vary, so the clearance term and the collision radius
    # decide many of the choices.
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = RolloutParams(
            clearance_weight=float(rng.uniform(0.0, 2.0)),
            goal_weight=float(rng.uniform(0.1, 1.0)),
            collision_radius=float(rng.uniform(0.2, 0.8)),
            clearance_cap=float(rng.uniform(0.5, 3.0)),
        )
        state = RobotState(
            Vec2(*rng.uniform(3.0, 17.0, 2)), heading=float(rng.uniform(-math.pi, math.pi))
        )
        goal = Vec2(*rng.uniform(1.0, 19.0, 2))
        peds = [
            _obs(
                k,
                tuple(state.position.as_tuple() + rng.uniform(-3.0, 3.0, 2)),
                tuple(rng.uniform(-1.2, 1.2, 2)),
            )
            for k in range(int(rng.integers(0, 7)))
        ]
        scores = _reference_scores(state, peds, goal, params)
        best = min(scores)
        chosen = tr_step(state, _rows(peds), goal, params)
        if math.isinf(best):
            assert chosen == (0.0, 0.0)
        else:
            assert scores[params.candidates.index(chosen)] <= best + 1e-9


def test_tr_step_zero_speed_scores_tie_on_first_candidate():
    # All-zero-progress situations fall back to the first candidate, which
    # is the stop command.
    state = RobotState(Vec2(5.0, 5.0), heading=0.0)
    cmd = tr_step(state, _rows([]), Vec2(5.0, 5.0), RolloutParams())
    assert cmd == (0.0, 0.0)

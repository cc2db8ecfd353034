"""Planner tests: the directional flow cost of the edge-cost table (against
hand-worked values and the closed-form reference in oracles.py), optimality
of the search against a plain Dijkstra oracle, the whole plan against a
reference A* bit for bit, and the receding-horizon replanner."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fipp import (
    CostParams,
    FlowField,
    FlowParams,
    GridSpec,
    NoPathError,
    OutOfBoundsError,
    Replanner,
    Vec2,
    plan,
)
from fipp.geometry import EPS
from fipp.planner import REPLAN_PERIOD, _edge_table, _heuristic
from oracles import astar_reference, dijkstra_cost, edge_cost_reference
from tracklogs import one_frame


def _field(width=7, height=5, cs=1.0):
    return FlowField(GridSpec(Vec2(0.0, 0.0), cs, width, height))


def _center(field, i, j):
    return field.spec.cell_center(i, j)


def _entry(field, params, move, cell):
    """(flow cost, total cost) of the table entry for ``move`` into ``cell``."""
    offsets, _, flow, total = _edge_table(field, params)
    d = offsets.index(move)
    k = (cell[1] + 1) * (field.spec.width + 2) + cell[0] + 1
    return float(flow[d, k]), float(total[d, k])


def _one_cell(force, cs=1.0):
    field = _field(width=1, height=1, cs=cs)
    field.force[0, 0] = force
    return field


# ---------------------------------------------------------------------------
# edge-cost table / heuristic
# ---------------------------------------------------------------------------


def test_flow_cost_aligned_is_free():
    assert _entry(_one_cell((2.0, 0.0)), CostParams(lambda_flow=3.0), (1, 0), (0, 0))[0] == 0.0


def test_flow_cost_opposed_is_lambda_times_magnitude():
    c, _ = _entry(_one_cell((2.0, 0.0)), CostParams(lambda_flow=3.0), (-1, 0), (0, 0))
    assert c == pytest.approx(3.0 * 2.0, abs=1e-12)


def test_flow_cost_perpendicular_is_half():
    c, _ = _entry(_one_cell((2.0, 0.0)), CostParams(lambda_flow=3.0), (0, 1), (0, 0))
    assert c == pytest.approx(3.0 * 2.0 / 2.0, abs=1e-12)


def test_flow_cost_zero_flow_is_free_any_direction():
    _, _, flow, _ = _edge_table(_one_cell((0.0, 0.0)), CostParams(lambda_flow=5.0))
    assert not flow.any()


def test_flow_cost_normalizes_action_direction():
    # A diagonal move is longer than a cardinal one, but against a force of
    # the same magnitude both pay the same full-opposition flow cost.
    params = CostParams(lambda_flow=1.0)
    s = 1.0 / math.sqrt(2.0)
    diagonal, _ = _entry(_one_cell((-s, -s)), params, (1, 1), (0, 0))
    cardinal, _ = _entry(_one_cell((-1.0, 0.0)), params, (1, 0), (0, 0))
    assert diagonal == pytest.approx(cardinal, abs=1e-12)
    assert cardinal == 1.0


@given(st.floats(-math.pi, math.pi), st.floats(0.01, 10.0), st.floats(0.0, 10.0))
def test_flow_cost_monotone_in_angle(phi, mag, lam):
    # Of the 8 moves into a cell, one at a larger angle to its force never
    # pays less flow cost.
    field = _one_cell((mag * math.cos(phi), mag * math.sin(phi)))
    offsets, _, flow, _ = _edge_table(field, CostParams(lambda_flow=lam))
    k = 1 * 3 + 1
    by_angle = sorted(
        (abs(math.remainder(math.atan2(dj, di) - phi, 2 * math.pi)), float(flow[d, k]))
        for d, (di, dj) in enumerate(offsets)
    )
    costs = [c for _, c in by_angle]
    assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))


def test_edge_cost_traversal_lengths():
    field = _field(cs=0.5)
    params = CostParams(lambda_flow=0.0)
    assert _entry(field, params, (1, 0), (1, 0))[1] == pytest.approx(0.5)
    assert _entry(field, params, (1, 1), (1, 1))[1] == pytest.approx(0.5 * math.sqrt(2))


def test_edge_cost_reads_force_at_destination():
    field = _field()
    field.force[0, 1] = (-3.0, 0.0)  # cell (1, 0) opposes +x motion
    params = CostParams(lambda_flow=2.0)
    # Stepping into the opposing cell pays the full flow cost.
    assert _entry(field, params, (1, 0), (1, 0))[1] == pytest.approx(1.0 + 2.0 * 3.0)
    # Leaving it in the other direction is free: the source force is not
    # consulted and cell (0, 0) carries no force.
    assert _entry(field, params, (-1, 0), (0, 0))[1] == pytest.approx(1.0)


def test_edge_cost_rejects_non_adjacent_cells():
    # The table holds the 8 unit moves only; the reference refuses any other.
    field = _field()
    offsets = _edge_table(field, CostParams())[0]
    assert len(offsets) == len(set(offsets)) == 8
    assert all(max(abs(di), abs(dj)) == 1 for di, dj in offsets)
    with pytest.raises(ValueError):
        edge_cost_reference((0, 0), (2, 0), field, CostParams())
    with pytest.raises(ValueError):
        edge_cost_reference((0, 0), (0, 0), field, CostParams())


def test_heuristic_is_euclidean_distance_between_centers():
    # On an empty field a straight or 45-degree route costs exactly the
    # Euclidean distance between cell centers, so an h equal to that distance
    # leads A* straight down the route: it expands the path cells only.
    field = _field(width=9, height=9, cs=0.5)
    start = _center(field, 4, 4)
    for goal in [(8, 4), (8, 8), (4, 0), (0, 0)]:
        end = _center(field, *goal)
        result = plan(field, start, end, CostParams())
        assert result.expanded == len(result.path) == 5
        assert result.cost_total == pytest.approx(start.distance_to(end), abs=1e-12)


_force_component = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-1e-9, 1e-9),
    st.just(0.0),
)


@given(
    width=st.integers(1, 5),
    height=st.integers(1, 5),
    cell_size=st.sampled_from([0.25, 0.3, 0.5, 1.0]),
    lam=st.floats(0.0, 10.0),
    data=st.data(),
)
def test_edge_table_matches_closed_form(width, height, cell_size, lam, data):
    field = FlowField(GridSpec(Vec2(0.0, 0.0), cell_size, width, height))
    forces = data.draw(
        st.lists(
            st.tuples(_force_component, _force_component),
            min_size=width * height, max_size=width * height,
        )
    )
    field.force[:] = np.array(forces).reshape(height, width, 2)
    offsets, step_costs, flow, total = _edge_table(field, CostParams(lambda_flow=lam))
    assert len(offsets) == 8
    wp = width + 2
    assert flow.shape == total.shape == (8, wp * (height + 2))
    for d, (di, dj) in enumerate(offsets):
        step_len = cell_size * math.sqrt(di * di + dj * dj)
        assert step_costs[d] == pytest.approx(step_len, abs=1e-12)
        for j in range(height):
            for i in range(width):
                k = (j + 1) * wp + i + 1
                fx, fy = field.force[j, i]
                mag = math.hypot(fx, fy)
                if mag < EPS:
                    assert flow[d, k] == 0.0
                else:
                    theta = math.atan2(dj, di) - math.atan2(fy, fx)
                    want = lam * mag * (1.0 - math.cos(theta)) / 2.0
                    assert abs(flow[d, k] - want) <= 1e-12
                assert abs(total[d, k] - (step_len + flow[d, k])) <= 1e-12


def test_edge_table_agrees_with_edge_cost_bit_for_bit():
    rng = np.random.default_rng(8)
    field = _field(width=6, height=4, cs=0.3)
    field.force[:] = rng.normal(0.0, 1.0, size=field.force.shape)
    # Cells without force, one with |f| just below EPS, and a row without force.
    field.force[1, 2] = (0.0, 0.0)
    field.force[1, 3] = (-0.0, 0.0)
    field.force[1, 4] = (5e-324, 0.0)
    field.force[2, 1] = (math.nextafter(EPS, 0.0), 0.0)
    field.force[3] = 0.0
    params = CostParams(lambda_flow=1.7)
    offsets, _, _, total = _edge_table(field, params)
    wp = field.spec.width + 2
    for d, (di, dj) in enumerate(offsets):
        for j in range(field.spec.height):
            for i in range(field.spec.width):
                src = (i - di, j - dj)
                if 0 <= src[0] < field.spec.width and 0 <= src[1] < field.spec.height:
                    want = edge_cost_reference(src, (i, j), field, params)
                    assert total[d, (j + 1) * wp + i + 1] == want


def test_edge_table_rejects_non_finite_force_naming_the_cell():
    field = _field(width=5, height=4)
    field.force[2, 3] = (math.nan, 0.0)
    field.force[3, 1] = (math.inf, 1.0)
    with pytest.raises(ValueError, match=r"cell \(3, 2\)"):
        plan(field, _center(field, 0, 0), _center(field, 4, 3), CostParams())
    # Also when the bad cell lies off every route and flow is not weighted.
    with pytest.raises(ValueError, match="non-finite"):
        plan(field, _center(field, 0, 0), _center(field, 1, 0), CostParams(lambda_flow=0.0))


def test_edge_table_names_the_first_non_finite_cell_in_row_major_order():
    field = _field(width=5, height=4)
    field.force[1, 4] = (math.nan, 0.0)
    field.force[2, 0] = (0.0, math.inf)
    field.force[1, 2] = (-math.inf, math.nan)
    with pytest.raises(ValueError, match=r"^force \(-inf, nan\) at cell \(2, 1\) gives"):
        _edge_table(field, CostParams())


def test_edge_table_names_lambda_when_the_weight_overflows_a_finite_force():
    # Cell (3, 0) comes first in row-major order: lambda * |f| overflows
    # there, before the NaN force of cell (1, 1) is reached.
    field = _field(width=5, height=4)
    field.force[0, 3] = (0.0, 2.0)
    field.force[1, 1] = (math.nan, 1.0)
    with pytest.raises(
        ValueError,
        match=r"^lambda_flow 1e\+308 times the force magnitude 2\.0 at cell \(3, 0\) gives",
    ):
        _edge_table(field, CostParams(lambda_flow=1e308))
    with pytest.raises(ValueError, match=r"^force \(nan, 1\.0\) at cell \(1, 1\) gives"):
        _edge_table(field, CostParams(lambda_flow=1.0))


def test_edge_table_names_the_cell_size_when_the_diagonal_step_overflows():
    # 1.5e308 is a finite cell size, but the diagonal step sqrt(2) * 1.5e308
    # is not: no cell or weight is at fault, and no cell (-1, -1) exists.
    field = FlowField(GridSpec(Vec2(0.0, 0.0), 1.5e308, 2, 1))
    with pytest.raises(ValueError, match=r"^cell_size 1\.5e\+308 gives a non-finite diagonal"):
        plan(field, Vec2(1e307, 1e307), Vec2(1.6e308, 1e307), CostParams())


def test_edge_table_of_a_field_without_force_is_the_step_costs():
    field = _field(width=6, height=3, cs=0.3)
    offsets, step_costs, flow, total = _edge_table(field, CostParams(lambda_flow=4.0))
    assert flow.shape == total.shape == (8, 8 * 5)
    assert not np.signbit(flow).any() and not flow.any()
    for d, (di, dj) in enumerate(offsets):
        assert step_costs[d] == math.hypot(di * 0.3, dj * 0.3)
        assert (total[d] == step_costs[d]).all()


@pytest.mark.parametrize("name", ["lambda_flow"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_cost_params_reject_non_finite_weights_naming_them(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number"):
        CostParams(**{name: value})


def test_cost_params_validation():
    with pytest.raises(ValueError, match="lambda_flow must be nonnegative"):
        CostParams(lambda_flow=-1.0)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def test_plan_straight_diagonal_on_empty_field():
    field = _field(width=5, height=5)
    result = plan(field, _center(field, 0, 0), _center(field, 4, 4), CostParams())
    assert result.path[0] == (0, 0)
    assert result.path[-1] == (4, 4)
    assert len(result.path) == 5
    assert result.cost_F == 0.0
    assert result.cost_total == pytest.approx(4 * math.sqrt(2), abs=1e-12)
    assert result.cost_total == pytest.approx(result.cost_T + result.cost_F, abs=1e-12)
    assert result.waypoints[0] == _center(field, 0, 0)
    assert result.waypoints[-1] == _center(field, 4, 4)


def test_plan_follows_flow_when_aligned():
    field = _field(width=7, height=3)
    field.force[1, :] = (1.0, 0.0)
    result = plan(field, _center(field, 0, 1), _center(field, 6, 1), CostParams(lambda_flow=2.0))
    assert result.path == [(i, 1) for i in range(7)]
    assert result.cost_total == 6.0
    assert result.cost_F == 0.0


def test_plan_detours_around_opposing_flow():
    field = _field(width=7, height=3)
    field.force[1, :] = (-2.0, 0.0)  # middle row pushes against +x travel
    params = CostParams(lambda_flow=2.0)
    start, goal = _center(field, 0, 1), _center(field, 6, 1)
    result = plan(field, start, goal, params)
    middle = [cell for cell in result.path if cell[1] == 1]
    assert middle == [(0, 1), (6, 1)]  # only the endpoints touch the stream
    assert result.cost_F > 0.0
    want = dijkstra_cost(field, (0, 1), (6, 1), params, edge_cost_reference)
    assert result.cost_total == want
    # Straight through would cost 6 traversal + 6 full-opposition penalties.
    assert result.cost_total < 6.0 + 6 * 2.0 * 2.0


def test_plan_lambda_zero_ignores_flow():
    field = _field(width=7, height=3)
    field.force[1, :] = (-5.0, 0.0)
    result = plan(field, _center(field, 0, 1), _center(field, 6, 1), CostParams(lambda_flow=0.0))
    assert result.path == [(i, 1) for i in range(7)]
    assert result.cost_total == 6.0


def test_plan_respects_blocked_cells():
    field = _field(width=5, height=5)
    wall = {(2, j) for j in range(4)}  # gap at the top
    result = plan(field, _center(field, 0, 0), _center(field, 4, 0), CostParams(), blocked=wall)
    assert wall.isdisjoint(result.path)
    assert (2, 4) in result.path


def test_plan_start_equals_goal_cell():
    field = _field()
    result = plan(field, Vec2(0.6, 0.6), Vec2(0.9, 0.9), CostParams())
    assert result.path == [(0, 0)]
    assert result.cost_total == 0.0


def test_plan_out_of_bounds_endpoints():
    field = _field()
    with pytest.raises(OutOfBoundsError):
        plan(field, Vec2(-1.0, 0.5), _center(field, 1, 1), CostParams())
    with pytest.raises(OutOfBoundsError):
        plan(field, _center(field, 1, 1), Vec2(99.0, 0.5), CostParams())
    # Callers that take every bad input as a ValueError catch it too.
    with pytest.raises(ValueError, match="inside the grid"):
        plan(field, Vec2(-1.0, 0.5), _center(field, 1, 1), CostParams())


def test_plan_blocked_endpoints_rejected():
    field = _field()
    with pytest.raises(ValueError):
        plan(field, _center(field, 0, 0), _center(field, 3, 3), CostParams(), blocked={(0, 0)})
    with pytest.raises(ValueError):
        plan(field, _center(field, 0, 0), _center(field, 3, 3), CostParams(), blocked={(3, 3)})


def test_plan_no_path_raises():
    field = _field(width=5, height=5)
    fence = {(2, j) for j in range(5)}
    with pytest.raises(NoPathError):
        plan(field, _center(field, 0, 0), _center(field, 4, 4), CostParams(), blocked=fence)


def test_plan_is_deterministic():
    field = _field(width=6, height=6)
    rng = np.random.default_rng(3)
    field.force[:] = rng.normal(0.0, 1.0, size=field.force.shape)
    a = plan(field, _center(field, 0, 0), _center(field, 5, 5), CostParams())
    b = plan(field, _center(field, 0, 0), _center(field, 5, 5), CostParams())
    assert a.path == b.path
    assert a.cost_total == b.cost_total
    assert a.expanded == b.expanded


def test_plans_sharing_the_heuristic_table_match_plans_made_from_scratch():
    # The per-goal heuristic table is cached; interleaved grids and goals
    # must each get their own. Goal B lies in cell (6, 4) of both grids,
    # whose cell sizes differ.
    rng = np.random.default_rng(4)
    grid1, grid2 = _field(width=9, height=7, cs=1.0), _field(width=9, height=7, cs=1.05)
    for field in (grid1, grid2):
        field.force[:] = rng.normal(0.0, 1.0, size=field.force.shape)
    a, b, c = Vec2(0.5, 0.5), Vec2(6.5, 4.5), Vec2(8.5, 1.5)
    assert grid1.spec.cell_of(b) == grid2.spec.cell_of(b) == (6, 4)
    queries = [(grid1, a, b), (grid1, a, c), (grid2, a, b), (grid1, a, b)]
    _heuristic.cache_clear()
    shared = [plan(field, start, goal, CostParams()) for field, start, goal in queries]
    for (field, start, goal), result in zip(queries, shared):
        _heuristic.cache_clear()
        assert result == plan(field, start, goal, CostParams())


def test_plan_cost_matches_dijkstra_on_random_fields():
    rng = np.random.default_rng(17)
    spec = GridSpec(Vec2(0.0, 0.0), 0.5, 10, 10)
    for _ in range(20):
        field = FlowField(spec)
        field.force[:] = rng.normal(0.0, 1.0, size=(10, 10, 2))
        cells = rng.integers(0, 10, size=4)
        start, goal = (int(cells[0]), int(cells[1])), (int(cells[2]), int(cells[3]))
        if start == goal:
            continue
        for lam in (0.0, 1.0, 2.0):
            params = CostParams(lambda_flow=lam)
            got = plan(field, spec.cell_center(*start), spec.cell_center(*goal), params)
            want = dijkstra_cost(field, start, goal, params, edge_cost_reference)
            assert got.cost_total == want
            assert got.cost_total == pytest.approx(got.cost_T + got.cost_F, rel=1e-12, abs=1e-12)


# Force components of a random field: zero of either sign, below EPS (so
# free in every direction), and ordinary.
_oracle_component = st.one_of(
    st.just(0.0), st.just(-0.0), st.floats(-1e-9, 1e-9), st.floats(-5.0, 5.0)
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    width=st.integers(1, 7),
    height=st.integers(1, 6),
    cell_size=st.sampled_from([0.25, 0.3, 0.5, 1.0]),
    lam=st.sampled_from([0.0, 0.5, 2.0, 7.5]),
    data=st.data(),
)
def test_plan_equals_the_reference_a_star_bit_for_bit(width, height, cell_size, lam, data):
    # Path, expansions, costs and per-step costs all match a reference A*
    # with a full heuristic table. The goals repeat and alternate between
    # calls, so the lazily filled heuristic table is shared, rebuilt and
    # grown; the endpoints are often border cells of these small grids.
    spec = GridSpec(Vec2(-1.25, 0.5), cell_size, width, height)
    field = FlowField(spec)
    forces = data.draw(st.lists(
        st.tuples(_oracle_component, _oracle_component),
        min_size=width * height, max_size=width * height,
    ))
    field.force[:] = np.array(forces).reshape(height, width, 2)
    cells = [(i, j) for j in range(height) for i in range(width)]
    blocked = data.draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 3))
    goals = data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3))
    params = CostParams(lambda_flow=lam)
    for goal in goals + goals[::-1]:
        start = data.draw(st.sampled_from(cells))
        around = frozenset(blocked - {start, goal})
        want = astar_reference(field, start, goal, params, around)
        query = (field, spec.cell_center(*start), spec.cell_center(*goal), params, around)
        if want is None:
            with pytest.raises(NoPathError):
                plan(*query)
            continue
        got = plan(*query)
        # repr tells every float apart by its bits, -0.0 from 0.0 too.
        assert repr((got.path, got.expanded, got.cost_T, got.cost_F, got.cost_total,
                     got.step_cost_T, got.step_cost_F)) == repr(want)


_CORNERS_AND_EDGES = [(0, 0), (5, 0), (0, 4), (5, 4), (2, 0), (3, 4), (0, 2), (5, 1)]


@pytest.mark.parametrize("start", _CORNERS_AND_EDGES)
def test_plan_from_and_to_the_grid_border(start):
    # The search grid is padded by one border cell: routes that hug the
    # border must neither step off the grid nor miss a cheaper border cell.
    rng = np.random.default_rng(31)
    field = _field(width=6, height=5, cs=0.5)
    field.force[:] = rng.normal(0.0, 1.0, size=field.force.shape)
    params = CostParams(lambda_flow=2.0)
    spec = field.spec
    for goal in _CORNERS_AND_EDGES:
        if goal == start:
            continue
        got = plan(field, spec.cell_center(*start), spec.cell_center(*goal), params)
        assert got.path[0] == start and got.path[-1] == goal
        assert all(0 <= i < spec.width and 0 <= j < spec.height for i, j in got.path)
        assert got.cost_total == dijkstra_cost(field, start, goal, params, edge_cost_reference)


def test_plan_with_blocked_cells_along_the_border():
    rng = np.random.default_rng(32)
    field = _field(width=6, height=5, cs=0.5)
    field.force[:] = rng.normal(0.0, 1.0, size=field.force.shape)
    spec = field.spec
    border = [(i, j) for i in range(6) for j in range(5) if i in (0, 5) or j in (0, 4)]
    blocked = frozenset(c for c in border if c not in {(0, 0), (5, 4)} and (c[0] + c[1]) % 2)
    # Cells off the grid are ignored, never wrapped onto a row neighbour.
    blocked_with_outside = blocked | {(-1, 0), (6, 2), (2, -1), (3, 5)}
    params = CostParams(lambda_flow=2.0)

    def blocked_edge(a, b, f, p):
        return math.inf if b in blocked else edge_cost_reference(a, b, f, p)

    for start, goal in [((0, 0), (5, 4)), ((5, 4), (0, 0)), ((0, 0), (5, 0)), ((0, 4), (5, 4))]:
        if start in blocked or goal in blocked:
            continue
        want = dijkstra_cost(field, start, goal, params, blocked_edge)
        args = (field, spec.cell_center(*start), spec.cell_center(*goal), params)
        if want == math.inf:
            with pytest.raises(NoPathError):
                plan(*args, blocked=blocked_with_outside)
            continue
        got = plan(*args, blocked=blocked_with_outside)
        assert blocked.isdisjoint(got.path)
        assert got.cost_total == want
        assert got.path == plan(*args, blocked=blocked).path


# ---------------------------------------------------------------------------
# Replanner
# ---------------------------------------------------------------------------


# The crowd of a step with nobody in it.
_NOBODY = one_frame(0.0, [])


def test_replanner_returns_goal_when_close():
    field = _field()
    rp = Replanner(CostParams(), FlowParams())
    goal = Vec2(3.0, 2.0)
    assert rp.step(field, _NOBODY, Vec2(3.1, 2.0), goal, set()) == goal


def test_replanner_heads_toward_goal():
    field = _field(width=7, height=3)
    rp = Replanner(CostParams(), FlowParams())
    pos = _center(field, 0, 1)
    goal = _center(field, 6, 1)
    target = rp.step(field, _NOBODY, pos, goal, set())
    assert target.x > pos.x
    assert rp.last_plan is not None
    # The robot's own cell center is not handed back as a waypoint.
    assert target != pos


def test_replanner_final_waypoint_is_exact_goal():
    field = _field(width=7, height=3)
    rp = Replanner(CostParams(), FlowParams())
    goal = Vec2(6.4, 1.2)  # off the cell center on purpose
    pos = _center(field, 0, 1)
    for _ in range(200):
        target = rp.step(field, _NOBODY, pos, goal, set())
        step = (target - pos).normalized() * 0.2
        pos = pos + step if (target - pos).magnitude() > 0.2 else target
        if pos.distance_to(goal) <= 0.3:
            break
    assert rp.step(field, _NOBODY, pos, goal, set()) == goal


def test_replanner_replans_when_waypoint_blocked():
    field = _field(width=7, height=3)
    rp = Replanner(CostParams(), FlowParams())
    pos = _center(field, 0, 1)
    goal = _center(field, 6, 1)
    rp.step(field, _NOBODY, pos, goal, set())
    first = rp.last_plan
    swept = {(1, 1), (2, 1)}  # stands on the current route
    target = rp.step(field, _NOBODY, pos, goal, swept)
    assert rp.last_plan is not first
    assert field.spec.cell_of(target) not in swept


def test_replanner_periodic_replan():
    field = _field(width=7, height=3)
    rp = Replanner(CostParams(), FlowParams())
    pos = _center(field, 0, 1)
    goal = _center(field, 6, 1)
    rp.step(field, _NOBODY, pos, goal, set())
    first = rp.last_plan
    for _ in range(REPLAN_PERIOD - 1):
        rp.step(field, _NOBODY, pos, goal, set())
    assert rp.last_plan is first  # within the period: no replan
    rp.step(field, _NOBODY, pos, goal, set())
    assert rp.last_plan is not first


def test_replanner_refreshes_field_before_replanning():
    # The step's frame is deposited and folded in before the plan.
    field = _field(width=7, height=3)
    rp = Replanner(CostParams(lambda_flow=4.0), FlowParams())
    frame = one_frame(0.0, [(k, 1.5 + k, 1.5, -1.2, 0.0) for k in range(5)])
    rp.step(field, frame, _center(field, 0, 1), _center(field, 6, 1), set())
    assert field.force.any()


def test_replanner_falls_back_to_occupied_cells_on_one_field_refresh(monkeypatch):
    # A sweep over every cell seals every route; the replanner then plans
    # around the cell the one pedestrian stands in, on the field it has
    # just updated.
    field = _field(width=7, height=3)
    update_field, updates = FlowField.update_field, []

    def update(self, params):
        updates.append(params)
        update_field(self, params)

    monkeypatch.setattr(FlowField, "update_field", update)
    rp = Replanner(CostParams(), FlowParams())
    frame = one_frame(0.0, [(0, 3.5, 1.5, 0.0, 0.0)])
    swept = {(i, j) for i in range(7) for j in range(3)}
    rp.step(field, frame, _center(field, 0, 1), _center(field, 6, 1), swept)
    assert len(updates) == 1
    assert (3, 1) not in rp.last_plan.path
    # A wall of people across the grid leaves no route either way.
    wall = one_frame(0.1, [(j, 3.5, j + 0.5, 0.0, 0.0) for j in range(3)])
    with pytest.raises(NoPathError):
        Replanner(CostParams(), FlowParams()).step(
            field, wall, _center(field, 0, 1), _center(field, 6, 1), swept
        )

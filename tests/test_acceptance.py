"""End-to-end acceptance checks.

One test per headline behavior, each at its stated tolerance and runtime
bound, each printing a one-line summary with the measured values (run
pytest -s to see them; they are also captured on failure).
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fipp import (
    CostParams,
    FlowField,
    FlowParams,
    GridSpec,
    TrackFrame,
    Vec2,
    generate_scenario,
    plan,
    run_episode,
    simulate_tracks,
    trajectory_deviation,
)
from fipp.cli import main
from fipp.planner import _edge_table
from oracles import (
    average_velocity_reference,
    dijkstra_cost,
    edge_cost_reference,
    field_force_reference,
)

BENCH_KINDS = "chaotic,single_flow,double_flow,intersection"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def test_extracted_field_reproduces_recorded_walkers():
    # Record a crossing crowd until the scene clears, extract the field over
    # a window of the walked band, then re-advect every pedestrian from its
    # first in-window position and compare against where it actually went.
    t0 = time.monotonic()
    sc = generate_scenario("single_flow", 30, seed=3)
    frames = simulate_tracks(sc, 45.0, drain=True)
    spec = GridSpec(Vec2(2.0, 7.5), 0.5, 32, 10)
    field = FlowField(spec)
    for frame in frames:
        field.deposit_frame(frame)
    field.update_field(FlowParams())

    tracks: dict[int, list[Vec2]] = {}
    for frame in frames:
        for ped_id, (x, y, _, _) in zip(frame.ids.tolist(), frame.state.tolist()):
            tracks.setdefault(ped_id, []).append(Vec2(x, y))

    def longest_in_window_run(points: list[Vec2]) -> list[Vec2]:
        best: list[Vec2] = []
        cur: list[Vec2] = []
        for p in points:
            if spec.contains(p):
                cur.append(p)
                if len(cur) > len(best):
                    best = cur
            else:
                cur = []
        return best

    deviations = []
    for points in tracks.values():
        run = longest_in_window_run(points)
        if len(run) >= 2:
            predicted = field.advect(run[0], 0.1, len(run) - 1)
            deviations.append(trajectory_deviation(predicted, run))
    wall = time.monotonic() - t0
    mean_dev = sum(deviations) / len(deviations)
    print(
        f"\n[acceptance] walker reproduction: mean deviation {mean_dev:.4f} m "
        f"over {len(deviations)} tracks (required < 0.2), "
        f"{wall:.1f}s (required < 10)"
    )
    assert len(deviations) >= 50  # the window must actually catch the crowd
    assert mean_dev < 0.2
    assert wall < 10.0


def test_flow_informed_planner_causes_fewer_social_violations(tmp_path):
    # Full sweep: four scenario kinds x 20 seeds x both planners. The flow
    # planner must produce a strictly lower median violation-event count in
    # every kind and in aggregate; travel times are reported, not gated.
    t0 = time.monotonic()
    out = tmp_path / "bench"
    rc = main([
        "bench", "--kinds", BENCH_KINDS, "--seeds", "1-20", "--jobs", "4",
        "--out", str(out),
    ])
    wall = time.monotonic() - t0
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["failures"] == []
    assert report["n_episodes"] == 80

    medians = {
        kind: entry["violation_events_median"]
        for kind, entry in report["per_scenario"].items()
    }
    agg = {
        p: report["per_planner"][p]["aggregates"]["violation_events"]["median"]
        for p in ("fipp", "tr")
    }
    times = {
        p: report["per_planner"][p]["aggregates"]["time_to_goal"]["median"]
        for p in ("fipp", "tr")
    }
    kinds_line = " ".join(
        f"{kind}={m['fipp']:g}/{m['tr']:g}" for kind, m in sorted(medians.items())
    )
    print(
        f"\n[acceptance] violation-event medians fipp/tr: {kinds_line} "
        f"aggregate={agg['fipp']:g}/{agg['tr']:g}; median time to goal "
        f"fipp={times['fipp']:.1f}s tr={times['tr']:.1f}s (reported only); "
        f"{wall:.1f}s (required < 300)"
    )
    assert set(medians) == set(BENCH_KINDS.split(","))
    for kind, m in medians.items():
        assert m["fipp"] < m["tr"], kind
    assert agg["fipp"] < agg["tr"]
    assert wall < 300.0


def test_wall_of_people_freezes_rollout_but_not_flow_planner():
    # A stationary wall of people across the robot's path: the rollout
    # baseline must freeze while the flow planner gets through, jointly in
    # at least 18 of 20 seeds.
    t0 = time.monotonic()
    tr_frozen = 0
    fipp_reached = 0
    both = 0
    for seed in range(1, 21):
        sc = generate_scenario("freeze_wall", seed=seed)
        tr = run_episode(sc, "tr")
        fipp = run_episode(sc, "fipp")
        tr_frozen += tr.outcome == "frozen"
        fipp_reached += fipp.outcome == "reached"
        both += tr.outcome == "frozen" and fipp.outcome == "reached"
    wall = time.monotonic() - t0
    print(
        f"\n[acceptance] wall of people: rollout frozen {tr_frozen}/20, "
        f"flow planner through {fipp_reached}/20, jointly {both}/20 "
        f"(required >= 18), {wall:.1f}s"
    )
    assert both >= 18


def test_force_chain_matches_brute_force_reference():
    # FlowField.update_field on 1000 random small grids (1-3 frames of
    # walkers, influence reach often wider than the grid): every cell's friction and force
    # against plain-loop reference code at 1e-9 relative tolerance.
    t0 = time.monotonic()
    rng = np.random.default_rng(20260814)
    cells = 0
    wide = 0
    for _ in range(1000):
        width, height = (int(v) for v in rng.integers(1, 7, size=2))
        cs = float(rng.choice([0.25, 0.5, 1.0]))
        h = float(rng.uniform(0.3, 3.0))
        xi = float(rng.uniform(0.0, 1.0))
        params = FlowParams(xi=xi, h=h)
        field = FlowField(GridSpec(Vec2(0.0, 0.0), cs, width, height))
        for t in range(int(rng.integers(1, 4))):
            n = int(rng.integers(0, 9))
            frame = TrackFrame.from_rows(
                0.1 * t,
                [
                    (
                        k,
                        rng.uniform(0.0, width * cs),
                        rng.uniform(0.0, height * cs),
                        *rng.uniform(-2.0, 2.0, 2),
                    )
                    for k in range(n)
                ],
            )
            field.deposit_frame(frame)
        field.update_field(params)
        wide += h / cs >= min(width, height)

        want = field_force_reference(
            cs,
            field.occupancy.tolist(),
            [[tuple(v) for v in row] for row in field.velocity.tolist()],
            average_velocity_reference([tuple(v) for v in frame.state[:, 2:].tolist()]),
            h, xi,
        )
        for j in range(height):
            for i in range(width):
                mu, (fx, fy) = want[j][i]
                assert _close(field.mu[j, i], mu), (i, j)
                assert _close(field.force[j, i, 0], fx), (i, j)
                assert _close(field.force[j, i, 1], fy), (i, j)
                cells += 1
    wall = time.monotonic() - t0
    print(
        f"\n[acceptance] force chain: 1000/1000 random grids ({cells} cells, "
        f"{wide} with the influence reach spanning the grid) within 1e-9 of "
        f"the reference, {wall:.1f}s (required < 5)"
    )
    assert wide > 0
    assert wall < 5.0


def test_plan_cost_matches_dijkstra_exactly():
    # Optimality: on random force fields the search's total cost must equal
    # a textbook Dijkstra run to the last bit, with and without flow cost.
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    spec = GridSpec(Vec2(0.0, 0.0), 1.0, 20, 20)
    checked = 0
    for _ in range(100):
        field = FlowField(spec)
        field.force[:] = rng.normal(0.0, 1.0, size=(20, 20, 2))
        si, sj, gi, gj = (int(v) for v in rng.integers(0, 20, size=4))
        if (si, sj) == (gi, gj):
            gi = (gi + 7) % 20
        start = spec.cell_center(si, sj)
        goal = spec.cell_center(gi, gj)
        for lam in (0.0, 2.0):
            params = CostParams(lambda_flow=lam)
            got = plan(field, start, goal, params).cost_total
            want = dijkstra_cost(field, (si, sj), (gi, gj), params, edge_cost_reference)
            assert got == want, (si, sj, gi, gj, lam, got - want)
            checked += 1
    wall = time.monotonic() - t0
    print(
        f"\n[acceptance] planner optimality: {checked}/200 plans bit-equal "
        f"to Dijkstra, {wall:.1f}s (required < 30)"
    )
    assert checked == 200
    assert wall < 30.0


def test_model_invariants_hold():
    # Friction coefficient stays in [0, 1) for any grid and occupancy.
    @settings(deadline=None, max_examples=200)
    @given(
        width=st.integers(1, 12),
        height=st.integers(1, 12),
        cell_size=st.sampled_from([0.25, 0.5, 1.0]),
        h=st.floats(0.3, 4.0),
        occupied=st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
    )
    def friction_in_unit_interval(width, height, cell_size, h, occupied):
        spec = GridSpec(Vec2(0.0, 0.0), cell_size, width, height)
        field = FlowField(spec)
        params = FlowParams(h=h)
        obs = tuple(
            (k, *spec.cell_center(i, j).as_tuple(), 1.0, 0.0)
            for k, (i, j) in enumerate(sorted(occupied))
            if i < width and j < height
        )
        field.deposit_frame(TrackFrame.from_rows(0.0, obs))
        field.update_field(params)
        assert (field.mu >= 0.0).all() and (field.mu < 1.0).all()

    friction_in_unit_interval()

    # Turning further against the flow never gets cheaper: cell k of a row
    # holds a force at angle theta_k to the +x move into it.
    thetas = np.linspace(0.0, math.pi, 181)
    row = FlowField(GridSpec(Vec2(0.0, 0.0), 1.0, len(thetas), 1))
    row.force[0, :, 0] = 1.5 * np.cos(thetas)
    row.force[0, :, 1] = -1.5 * np.sin(thetas)
    offsets, _, flow, _ = _edge_table(row, CostParams(lambda_flow=2.0))
    costs = flow[offsets.index((1, 0)), len(thetas) + 3 : 2 * len(thetas) + 3].tolist()
    assert len(costs) == 181 and costs[0] == 0.0 and math.isclose(costs[-1], 3.0)
    assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))

    # Advection through a uniform field matches the closed form.
    spec = GridSpec(Vec2(0.0, 0.0), 0.5, 40, 40)
    field = FlowField(spec)
    field.force[:, :, 0] = 0.3
    field.force[:, :, 1] = -0.2
    for k, p in enumerate(field.advect(Vec2(4.0, 15.0), 0.1, 25)):
        assert math.isclose(p.x, 4.0 + k * 0.1 * 2.0 * 0.3, rel_tol=0.0, abs_tol=1e-9)
        assert math.isclose(p.y, 15.0 - k * 0.1 * 2.0 * 0.2, rel_tol=0.0, abs_tol=1e-9)

    # A uniform lane's occupied cells push with xi times their velocity
    # estimate, which one frame sets to EMA_DECAY (0.3) times the walking
    # velocity.
    lane_field = FlowField(GridSpec(Vec2(0.0, 0.0), 0.5, 17, 5))
    params = FlowParams()
    obs = [(k, (2 * k + 0.5) * 0.5, 1.25, 1.2, 0.0) for k in range(9)]
    lane_field.deposit_frame(TrackFrame.from_rows(0.0, obs))
    lane_field.update_field(params)
    for i in range(0, 17, 2):
        fx, fy = lane_field.force[2, i].tolist()
        assert math.isclose(fx, params.xi * (0.3 * 1.2), rel_tol=0.0, abs_tol=1e-12)
        assert fy == 0.0

    print(
        "\n[acceptance] invariants: friction in [0,1) on 200 grids, flow cost "
        "monotone in angle, uniform advection exact to 1e-9, lane force = xi*v"
    )


def test_bench_runs_are_byte_reproducible(tmp_path):
    # Same sweep twice into different directories: every episode log and
    # both reports must match byte for byte. (The manifest is excluded: it
    # records the output path itself.)
    args = ["bench", "--kinds", BENCH_KINDS, "--seeds", "1", "--jobs", "4"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    names = sorted(p.name for p in (a / "episodes").iterdir())
    assert names == sorted(p.name for p in (b / "episodes").iterdir())
    assert len(names) == 8
    for name in names:
        assert (a / "episodes" / name).read_bytes() == (
            b / "episodes" / name
        ).read_bytes(), name
    for artifact in ("report.json", "report.txt"):
        assert (a / artifact).read_bytes() == (b / artifact).read_bytes(), artifact
    print(
        "\n[acceptance] determinism: 8 episode logs, report.json and "
        "report.txt byte-identical across repeated runs"
    )

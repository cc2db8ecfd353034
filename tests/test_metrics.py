"""Metric tests: proxemic zones, violation counting, efficiency and the
cross-planner comparison summary."""

from __future__ import annotations

import math

import pytest

from fipp import (
    EpisodeLog,
    MetricsReport,
    Scenario,
    StepRecord,
    compare,
    compute_report,
    efficiency,
    proxemic_zone,
    social_violations,
)
from fipp.metrics import format_table, min_distances
from fipp.sim import generate_scenario
from tracklogs import one_frame


def _obs(x, y, ped_id=0):
    """A standing pedestrian's track row."""
    return (ped_id, x, y, 0.0, 0.0)


def _log(*, positions, ped_xs=None, outcome="reached", dt=1.0, max_t=120.0, planner="fipp"):
    """Robot walks through `positions`; one pedestrian per step at ped_xs."""
    records = []
    for k, (x, y) in enumerate(positions):
        peds = ()
        if ped_xs is not None and ped_xs[k] is not None:
            peds = (_obs(ped_xs[k], y),)
        records.append(StepRecord(k * dt, x, y, 0.0, 0.0, one_frame(k * dt, peds)))
    scenario = generate_scenario("chaotic", 5, seed=1)
    return EpisodeLog(scenario, planner, max_t, records, outcome)


# ---------------------------------------------------------------------------
# proxemic zones
# ---------------------------------------------------------------------------


def test_proxemic_zone_bands():
    assert proxemic_zone(0.3) == "intimate"
    assert proxemic_zone(2.0) == "social"
    assert proxemic_zone(5.0) == "beyond_social"


def test_proxemic_zone_boundaries():
    assert proxemic_zone(1.0) == "social"  # intimate band is open at 1 m
    assert proxemic_zone(4.0) == "social"  # social band closed at 4 m
    assert proxemic_zone(0.0) == "intimate"


def test_proxemic_zone_rejects_negative():
    with pytest.raises(ValueError):
        proxemic_zone(-0.1)


# ---------------------------------------------------------------------------
# distances and violations
# ---------------------------------------------------------------------------


def test_min_distances_per_step():
    log = _log(positions=[(0.0, 0.0), (1.0, 0.0)], ped_xs=[3.0, None])
    assert min_distances(log) == [3.0, math.inf]


def test_min_distances_takes_closest_pedestrian():
    peds = one_frame(0.0, [_obs(5.0, 0.0, 1), _obs(0.0, 2.0, 2)])
    rec = StepRecord(0.0, 0.0, 0.0, 0.0, 0.0, peds)
    log = EpisodeLog(generate_scenario("chaotic", 5, 1), "tr", 120.0, [rec], "reached")
    assert min_distances(log) == [2.0]


def test_social_violations_counts_steps_and_runs():
    # Close at steps 3,4,5 and 9: four steps, two separate events.
    xs = [10.0] * 10
    for k in (3, 4, 5, 9):
        xs[k] = 0.3
    log = _log(positions=[(0.0, 0.0)] * 10, ped_xs=xs)
    assert social_violations(log) == (4, 2)


def test_social_violations_none():
    log = _log(positions=[(0.0, 0.0)] * 5, ped_xs=[2.0] * 5)
    assert social_violations(log) == (0, 0)


def test_social_violations_threshold_is_exclusive():
    log = _log(positions=[(0.0, 0.0)], ped_xs=[0.5])
    assert social_violations(log, threshold=0.5) == (0, 0)
    assert social_violations(log, threshold=0.51) == (1, 1)


def test_social_violations_monotone_in_threshold():
    xs = [0.2, 0.4, 0.6, 0.8, 1.0, 3.0]
    log = _log(positions=[(0.0, 0.0)] * 6, ped_xs=xs)
    steps = [social_violations(log, th)[0] for th in (0.3, 0.5, 0.7, 0.9, 2.0)]
    assert steps == sorted(steps)
    assert steps == [1, 2, 3, 4, 5]


def test_social_violations_validation():
    log = _log(positions=[(0.0, 0.0)], ped_xs=[1.0])
    with pytest.raises(ValueError):
        social_violations(log, threshold=0.0)
    empty = EpisodeLog(generate_scenario("chaotic", 5, 1), "tr", 120.0, [], "timeout")
    with pytest.raises(ValueError):
        social_violations(empty)


# ---------------------------------------------------------------------------
# efficiency
# ---------------------------------------------------------------------------


def test_efficiency_straight_line():
    positions = [(float(x), 0.0) for x in range(11)]  # 10 m in 10 s
    log = _log(positions=positions)
    time_to_goal, path_length, avg_velocity = efficiency(log)
    assert time_to_goal == 10.0
    assert path_length == pytest.approx(10.0)
    assert avg_velocity == pytest.approx(1.0)


def test_efficiency_bent_path():
    positions = [(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]
    log = _log(positions=positions, dt=3.5)
    time_to_goal, path_length, avg_velocity = efficiency(log)
    assert time_to_goal == 7.0
    assert path_length == pytest.approx(7.0)
    assert avg_velocity == pytest.approx(1.0)


def test_efficiency_charges_full_time_when_not_reached():
    log = _log(positions=[(0.0, 0.0), (1.0, 0.0)], outcome="frozen", max_t=120.0)
    time_to_goal, path_length, _ = efficiency(log)
    assert time_to_goal == 120.0
    assert path_length == pytest.approx(1.0)


def test_efficiency_rejects_empty_log():
    empty = EpisodeLog(generate_scenario("chaotic", 5, 1), "tr", 120.0, [], "timeout")
    with pytest.raises(ValueError):
        efficiency(empty)


# ---------------------------------------------------------------------------
# reports and comparison
# ---------------------------------------------------------------------------


def test_compute_report_fields():
    xs = [10.0, 1.3, 10.0]  # 0.3 m from the robot at step 1 only
    log = _log(positions=[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], ped_xs=xs)
    report = compute_report(log)
    assert report.planner == "fipp"
    assert report.scenario_kind == "chaotic"
    assert report.seed == 1
    assert report.outcome == "reached"
    assert (report.violations_steps, report.violation_events) == (1, 1)
    assert report.time_to_goal == 2.0
    assert report.avg_velocity == pytest.approx(1.0)
    assert report.to_dict()["path_length"] == report.path_length


def _report(planner, kind, seed, events, outcome="reached", time_to_goal=10.0):
    return MetricsReport(
        planner=planner,
        scenario_kind=kind,
        seed=seed,
        outcome=outcome,
        violations_steps=events * 3,
        violation_events=events,
        time_to_goal=time_to_goal,
        path_length=12.0,
        avg_velocity=12.0 / time_to_goal,
    )


def test_compare_self_is_a_tie():
    reports = [_report("x", "chaotic", s, events=s % 3) for s in range(1, 6)]
    summary = compare({"a": [r for r in reports], "b": [r for r in reports]})
    assert summary["per_scenario"]["chaotic"]["winner"] == "tie"
    assert summary["median_deltas"]["a-b"]["violation_events"] == 0.0
    assert summary["n_episodes"] == 5


def test_compare_picks_lower_median_events():
    quiet = [_report("fipp", "single_flow", s, events=1) for s in (1, 2, 3)]
    noisy = [_report("tr", "single_flow", s, events=4) for s in (1, 2, 3)]
    summary = compare({"fipp": quiet, "tr": noisy})
    entry = summary["per_scenario"]["single_flow"]
    assert entry["violation_events_median"] == {"fipp": 1, "tr": 4}
    assert entry["winner"] == "fipp"
    assert summary["median_deltas"]["fipp-tr"]["violation_events"] == -3.0


def test_compare_leaves_out_an_unpaired_report():
    fipp1, tr1 = (_report(p, "chaotic", 1, events=1) for p in ("fipp", "tr"))
    fipp2 = _report("fipp", "chaotic", 2, events=5)
    summary = compare({"fipp": [fipp1, fipp2], "tr": [tr1]})
    assert summary["n_episodes"] == 1
    assert summary["episodes"] == {"fipp": [fipp1.to_dict()], "tr": [tr1.to_dict()]}
    assert summary["per_planner"]["fipp"]["aggregates"]["violation_events"]["max"] == 1
    # With no pair complete, the reports given are the whole summary.
    assert compare({"fipp": [fipp2], "tr": [tr1]}) == {
        "episodes": {"fipp": [fipp2.to_dict()], "tr": [tr1.to_dict()]}
    }
    assert compare({"fipp": [fipp1, fipp2], "tr": []}) == {
        "episodes": {"fipp": [fipp1.to_dict(), fipp2.to_dict()], "tr": []}
    }


def test_compare_excludes_non_reached_from_velocity():
    frozen = [_report("tr", "freeze_wall", s, events=0, outcome="frozen") for s in (1, 2)]
    moving = [_report("fipp", "freeze_wall", s, events=0) for s in (1, 2)]
    summary = compare({"fipp": moving, "tr": frozen})
    assert summary["per_planner"]["tr"]["aggregates"]["avg_velocity"] is None
    assert summary["per_planner"]["tr"]["non_reached_excluded_from_avg_velocity"] == 2
    assert summary["per_planner"]["fipp"]["aggregates"]["avg_velocity"]["mean"] == pytest.approx(1.2)
    assert summary["per_planner"]["tr"]["outcomes"] == {"reached": 0, "timeout": 0, "frozen": 2}


def test_compare_aggregates_time_to_goal():
    a = [_report("fipp", "chaotic", s, events=0, time_to_goal=float(10 + s)) for s in (1, 2, 3)]
    b = [_report("tr", "chaotic", s, events=0, time_to_goal=8.0) for s in (1, 2, 3)]
    summary = compare({"fipp": a, "tr": b})
    agg = summary["per_planner"]["fipp"]["aggregates"]["time_to_goal"]
    assert agg == {"mean": 12.0, "median": 12.0, "min": 11.0, "max": 13.0}
    assert summary["median_deltas"]["fipp-tr"]["time_to_goal"] == 4.0


def test_format_table_lists_planners_and_winners():
    quiet = [_report("fipp", "single_flow", s, events=1) for s in (1, 2, 3)]
    noisy = [_report("tr", "single_flow", s, events=4) for s in (1, 2, 3)]
    text = format_table(compare({"fipp": quiet, "tr": noisy}))
    assert "fipp" in text and "tr" in text
    assert "winner: fipp" in text
    assert "episodes reached" in text
    assert "violation_events median" in text


def test_format_table_renders_missing_velocity_as_dash():
    frozen = [_report("tr", "freeze_wall", 1, events=0, outcome="frozen")]
    moving = [_report("fipp", "freeze_wall", 1, events=0)]
    text = format_table(compare({"fipp": moving, "tr": frozen}))
    row = next(line for line in text.splitlines() if line.startswith("avg_velocity mean"))
    assert "1.200" in row  # the planner that moved
    assert row.split()[-1] == "-"  # the one that never reached

"""Social-compliance and efficiency metrics over episode logs.

Proxemic zones follow the usual bands: intimate below 1 m, social from 1 m
to 4 m. A social violation is any timestep with a pedestrian closer than
the threshold (default 0.5 m); violations are reported both as raw step
counts and as events (maximal consecutive runs), and planner comparisons
gate on events. Non-reached episodes stay in the violation statistics but
are excluded from average-velocity aggregates, where a frozen robot would
otherwise look deceptively calm.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, asdict

import numpy as np

from .geometry import check_finite, left_sum
from .sim import OUTCOMES, EpisodeLog

INTIMATE = "intimate"
SOCIAL = "social"
BEYOND_SOCIAL = "beyond_social"

INTIMATE_RADIUS = 1.0
SOCIAL_RADIUS = 4.0

DEFAULT_THRESHOLD = 0.5

_AGG_METRICS = ("violations_steps", "violation_events", "time_to_goal", "path_length")


@dataclass(frozen=True)
class MetricsReport:
    planner: str
    scenario_kind: str
    seed: int
    outcome: str
    violations_steps: int
    violation_events: int
    time_to_goal: float
    path_length: float
    avg_velocity: float

    def to_dict(self) -> dict:
        return asdict(self)


def proxemic_zone(d: float) -> str:
    if d < 0:
        raise ValueError("distance must be nonnegative")
    if d < INTIMATE_RADIUS:
        return INTIMATE
    if d <= SOCIAL_RADIUS:
        return SOCIAL
    return BEYOND_SOCIAL


def min_distances(log: EpisodeLog) -> list[float]:
    """Per-step minimum robot-pedestrian distance (inf for ped-free steps)."""
    return [
        min(map(math.hypot, (x - peds[:, 0]).tolist(), (y - peds[:, 1]).tolist()),
            default=math.inf)
        for (_, _, peds), (x, y) in zip(log.crowd.frames(), log.robot[:, :2].tolist())
    ]


def check_threshold(threshold: float) -> None:
    """Raise ValueError naming the threshold unless it is a finite positive
    distance."""
    check_finite(threshold=threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")


def social_violations(log: EpisodeLog, threshold: float = DEFAULT_THRESHOLD) -> tuple[int, int]:
    """(steps below threshold, maximal consecutive runs of such steps)."""
    check_threshold(threshold)
    below = [d < threshold for d in min_distances(log)]
    events = sum(now and not before for before, now in zip([False, *below], below))
    return sum(below), events


def efficiency(log: EpisodeLog) -> tuple[float, float, float]:
    """(time_to_goal, path_length, avg_velocity).

    time_to_goal is the reach time for reached episodes and max_t otherwise
    (a frozen or timed-out robot gets no credit for stopping early).
    """
    moves = np.diff(log.robot[:, :2], axis=0)
    path_length = left_sum(map(math.hypot, moves[:, 0].tolist(), moves[:, 1].tolist()))
    if log.outcome == "reached":
        t = log.crowd.t
        time_to_goal = float(t[-1] - t[0])
    else:
        time_to_goal = log.max_t
    if time_to_goal <= 0:
        raise ValueError("zero-duration episode log")
    return time_to_goal, path_length, path_length / time_to_goal


def compute_report(log: EpisodeLog, threshold: float = DEFAULT_THRESHOLD) -> MetricsReport:
    steps, events = social_violations(log, threshold)
    time_to_goal, path_length, avg_velocity = efficiency(log)
    return MetricsReport(
        planner=log.planner,
        scenario_kind=log.scenario.kind,
        seed=log.scenario.seed,
        outcome=log.outcome,
        violations_steps=steps,
        violation_events=events,
        time_to_goal=time_to_goal,
        path_length=path_length,
        avg_velocity=avg_velocity,
    )


def _aggregate(values: list[float]) -> dict:
    return {
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def compare(report_sets: dict[str, list[MetricsReport]]) -> dict:
    """Paired summary of two planners' reports.

    Compares only the (scenario kind, seed) pairs both planners completed,
    keeping each planner's reports of them in their given order: an episode
    that failed for one planner drops its pair. ``episodes`` lists the
    compared reports, or every report given when no pair is complete; then
    it is the whole summary. Otherwise the summary adds per-planner
    aggregates of each metric (avg_velocity over reached episodes only),
    per-scenario violation-event medians and winner (fewest median
    violation events; 'tie' on equality), and the median deltas of the
    first planner by name minus the second.
    """
    paired = set.intersection(
        *({(r.scenario_kind, r.seed) for r in reports} for reports in report_sets.values())
    )
    if paired:
        report_sets = {
            planner: [r for r in reports if (r.scenario_kind, r.seed) in paired]
            for planner, reports in report_sets.items()
        }
    episodes = {planner: [r.to_dict() for r in reports] for planner, reports in report_sets.items()}
    if not paired:
        return {"episodes": episodes}

    planners = sorted(report_sets)
    summary: dict = {
        "episodes": episodes, "planners": planners, "n_episodes": len(paired), "per_planner": {}
    }
    for planner in planners:
        reports = report_sets[planner]
        agg = {
            metric: _aggregate([float(getattr(r, metric)) for r in reports])
            for metric in _AGG_METRICS
        }
        reached = [r for r in reports if r.outcome == "reached"]
        agg["avg_velocity"] = (
            _aggregate([r.avg_velocity for r in reached]) if reached else None
        )
        summary["per_planner"][planner] = {
            "aggregates": agg,
            "outcomes": {
                outcome: sum(1 for r in reports if r.outcome == outcome)
                for outcome in OUTCOMES
            },
            "non_reached_excluded_from_avg_velocity": len(reports) - len(reached),
        }

    kinds = sorted({kind for kind, _ in paired})
    per_scenario = {}
    for kind in kinds:
        medians = {
            planner: statistics.median(
                [r.violation_events for r in report_sets[planner] if r.scenario_kind == kind]
            )
            for planner in planners
        }
        best = min(medians.values())
        winners = [p for p, m in medians.items() if m == best]
        per_scenario[kind] = {
            "violation_events_median": medians,
            "winner": winners[0] if len(winners) == 1 else "tie",
        }
    summary["per_scenario"] = per_scenario

    a, b = planners
    summary["median_deltas"] = {f"{a}-{b}": {
        metric: summary["per_planner"][a]["aggregates"][metric]["median"]
        - summary["per_planner"][b]["aggregates"][metric]["median"]
        for metric in _AGG_METRICS
    }}
    return summary


def format_table(summary: dict) -> str:
    """Aligned plain-text rendering of a compare() summary."""
    planners = summary["planners"]
    lines = []
    header = f"{'metric':<22}" + "".join(f"{p:>14}" for p in planners)
    lines.append(header)
    lines.append("-" * len(header))
    for metric in _AGG_METRICS + ("avg_velocity",):
        for stat in ("mean", "median"):
            row = f"{metric + ' ' + stat:<22}"
            for p in planners:
                agg = summary["per_planner"][p]["aggregates"][metric]
                row += f"{'-':>14}" if agg is None else f"{agg[stat]:>14.3f}"
            lines.append(row)
    lines.append("-" * len(header))
    for outcome in OUTCOMES:
        row = f"{'episodes ' + outcome:<22}"
        for p in planners:
            row += f"{summary['per_planner'][p]['outcomes'][outcome]:>14d}"
        lines.append(row)
    lines.append("-" * len(header))
    for kind, entry in summary["per_scenario"].items():
        row = f"{kind + ' ev. median':<22}"
        for p in planners:
            row += f"{entry['violation_events_median'][p]:>14.1f}"
        row += f"  winner: {entry['winner']}"
        lines.append(row)
    return "\n".join(lines)

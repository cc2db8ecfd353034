"""Flow-informed path planning: extract a crowd flow field from pedestrian
tracks, plan paths that move with the flow, and benchmark the result against
a trajectory-rollout baseline in a deterministic crowd simulator."""

from .baseline_tr import tr_step
from .flowfield import (
    FlowField,
    FlowParams,
    GridSpec,
    TrackLog,
    resample_by_arclength,
    trajectory_deviation,
)
from .geometry import Vec2
from .metrics import (
    MetricsReport,
    compare,
    compute_report,
    efficiency,
    proxemic_zone,
    social_violations,
)
from .planner import (
    CostParams,
    NoPathError,
    OutOfBoundsError,
    PlanResult,
    Replanner,
    plan,
)
from .sim import (
    Crowd,
    EpisodeLog,
    Lane,
    Rect,
    Scenario,
    generate_scenario,
    ped_step,
    run_episode,
    simulate_tracks,
)

__version__ = "0.1.0"

__all__ = [
    "Vec2",
    "TrackLog",
    "GridSpec",
    "FlowParams",
    "FlowField",
    "resample_by_arclength",
    "trajectory_deviation",
    "CostParams",
    "PlanResult",
    "NoPathError",
    "OutOfBoundsError",
    "plan",
    "Replanner",
    "tr_step",
    "Rect",
    "Lane",
    "Scenario",
    "Crowd",
    "EpisodeLog",
    "generate_scenario",
    "ped_step",
    "simulate_tracks",
    "run_episode",
    "proxemic_zone",
    "social_violations",
    "efficiency",
    "MetricsReport",
    "compute_report",
    "compare",
    "__version__",
]

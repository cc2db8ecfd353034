"""Spans around calls into fipp's layers, recorded from outside the package.

``traced(tracer)`` replaces each traced function at the name its callers
look up (``from ... import`` binds copies, so ``fipp.cli.plan`` and
``fipp.planner.plan`` are both replaced) and puts every original back when
the block exits. Spans are kept in memory as ``[name, start, end, parent,
busy, count, arg]`` lists and written out by the caller at the end of the
run. ``ped_step`` runs once per pedestrian per step, so consecutive calls
under one parent fold into one aggregate span whose ``busy`` is the sum of
the call durations and ``count`` the number of calls.

The arithmetic at the bottom (self time, per-layer metrics) uses only the
standard library, so the launcher can import this module without fipp.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

NAME, START, END, PARENT, BUSY, COUNT, ARG = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters = {
            "planner.plan.expanded_total": 0,
            "planner.plan.no_path": 0,
            "baseline_tr.zero_cmd": 0,
        }
        self._stack: list[int] = []
        self._agg: int | None = None

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    def enter(self, name: str, arg=None) -> int:
        self._agg = None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._parent(), 0.0, 1, arg])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        end = time.perf_counter()
        self._agg = None
        span = self.spans[idx]
        span[END] = end
        span[BUSY] = end - span[START]
        self._stack.pop()

    def add_call(self, name: str, start: float, end: float) -> None:
        """Fold one short call into the open aggregate span of ``name``."""
        agg = self._agg
        if agg is None or self.spans[agg][NAME] != name:
            agg = self._agg = len(self.spans)
            self.spans.append([name, start, end, self._parent(), 0.0, 0, None])
        span = self.spans[agg]
        span[END] = end
        span[BUSY] += end - start
        span[COUNT] += 1


def _span_wrapper(tracer: Tracer, name: str, fn, on_result=None, on_error=None, arg_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name, arg_of(args, kwargs) if arg_of else None)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(idx)
            if on_error is not None:
                on_error(exc)
            raise
        tracer.exit(idx)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _aggregate_wrapper(tracer: Tracer, name: str, fn):
    clock = time.perf_counter
    add = tracer.add_call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        add(name, start, clock())
        return result

    return wrapper


def _path_arg(args, kwargs):
    return args[0] if args else kwargs.get("path")


def _targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every traced call site."""
    import fipp.cli
    import fipp.io
    import fipp.planner
    import fipp.sim
    from fipp.flowfield import FlowField

    counters = tracer.counters

    def plan_done(result) -> None:
        counters["planner.plan.expanded_total"] += result.expanded

    def plan_failed(exc) -> None:
        if isinstance(exc, fipp.planner.NoPathError):
            counters["planner.plan.no_path"] += 1

    def tr_done(cmd) -> None:
        if cmd == (0.0, 0.0):
            counters["baseline_tr.zero_cmd"] += 1

    def span(name, fn, **hooks):
        return _span_wrapper(tracer, name, fn, **hooks)

    out = [
        (fipp.cli, "run_episode", span("sim.run_episode", fipp.cli.run_episode)),
        (fipp.cli, "compute_report",
         span("metrics.compute_report", fipp.cli.compute_report)),
        (fipp.sim, "ped_step", _aggregate_wrapper(tracer, "sim.ped_step", fipp.sim.ped_step)),
        (fipp.sim, "observations", span("sim.observations", fipp.sim.observations)),
        (fipp.sim, "_swept_cells", span("sim._swept_cells", fipp.sim._swept_cells)),
        (fipp.sim, "tr_step",
         span("baseline_tr.tr_step", fipp.sim.tr_step, on_result=tr_done)),
        (fipp.planner.Replanner, "step",
         span("planner.Replanner.step", fipp.planner.Replanner.step)),
        (FlowField, "deposit_frame", span("flowfield.deposit_frame", FlowField.deposit_frame)),
        (FlowField, "update_field", span("flowfield.update_field", FlowField.update_field)),
    ]
    for owner in (fipp.cli, fipp.planner):
        out.append((owner, "plan", span("planner.plan", owner.plan,
                                        on_result=plan_done, on_error=plan_failed)))
    for attr, fn in sorted(vars(fipp.io).items()):
        if callable(fn) and not isinstance(fn, type) and not attr.startswith("_") \
                and getattr(fn, "__module__", None) == "fipp.io":
            out.append((fipp.io, attr, span(f"io.{attr}", fn, arg_of=_path_arg)))
    return out


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, wrapper in _targets(tracer):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_originals() -> dict[str, object]:
    """The objects currently bound at every traced name, for checking that
    a traced run left nothing replaced."""
    return {f"{getattr(o, '__name__', o)}.{a}": vars(o)[a] for o, a, _ in _targets(Tracer())}


# --- arithmetic over recorded spans (standard library only) ----------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's busy time minus the busy time of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[BUSY]
    return [span[BUSY] - c for span, c in zip(spans, covered)]


def pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, counters, wall_s, steps, nbytes, nrows) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``wall_s`` is the traced wall time of the timed phase, ``steps`` the
    simulated steps read from the episode logs, ``nbytes(path)`` and
    ``nrows(path)`` the size and data-row count of a file a span named.
    """
    selfs = self_times(spans)
    busy: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    args: dict[str, list] = {}
    for span, own in zip(spans, selfs):
        name = span[NAME]
        busy.setdefault(name, []).append(span[BUSY])
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + span[COUNT]
        if span[ARG] is not None:
            args.setdefault(name, []).append(span[ARG])
    root_busy = sum(span[BUSY] for span in spans if span[PARENT] < 0)

    def ms(name: str, q: int) -> float:
        return pct(busy.get(name, []), q) * 1e3

    def share(name: str) -> float:
        return self_s.get(name, 0.0) / wall_s

    def per_s(name: str, amount) -> float:
        total = sum(busy.get(name, []))
        return sum(amount(a) for a in args.get(name, [])) / total if total else 0.0

    plan_calls = calls.get("planner.plan", 0)
    step_calls = calls.get("planner.Replanner.step", 0)
    tr_calls = calls.get("baseline_tr.tr_step", 0)
    ped_calls = calls.get("sim.ped_step", 0)
    return {
        "planner.plan.calls": plan_calls,
        "planner.plan.ms_p50": ms("planner.plan", 50),
        "planner.plan.ms_p99": ms("planner.plan", 99),
        "planner.plan.share": share("planner.plan"),
        "planner.plan.expanded_total": counters["planner.plan.expanded_total"],
        "planner.plan.no_path": counters["planner.plan.no_path"],
        "planner.Replanner.step.ms_p99": ms("planner.Replanner.step", 99),
        "planner.Replanner.step.share": share("planner.Replanner.step"),
        "planner.replan_ratio": plan_calls / step_calls if step_calls else 0.0,
        "flowfield.deposit_frame.ms_p50": ms("flowfield.deposit_frame", 50),
        "flowfield.deposit_frame.share": share("flowfield.deposit_frame"),
        "flowfield.update_field.calls": calls.get("flowfield.update_field", 0),
        "flowfield.update_field.ms_p50": ms("flowfield.update_field", 50),
        "flowfield.update_field.share": share("flowfield.update_field"),
        "sim.steps": steps,
        "sim.ped_step.calls": ped_calls,
        "sim.ped_step.us_mean":
            sum(busy.get("sim.ped_step", [])) / ped_calls * 1e6 if ped_calls else 0.0,
        "sim.ped_step.share": share("sim.ped_step"),
        "sim.observations.share": share("sim.observations"),
        "sim._swept_cells.ms_p50": ms("sim._swept_cells", 50),
        "sim._swept_cells.share": share("sim._swept_cells"),
        "sim.run_episode.self_share": share("sim.run_episode"),
        "baseline_tr.tr_step.ms_p50": ms("baseline_tr.tr_step", 50),
        "baseline_tr.tr_step.ms_p99": ms("baseline_tr.tr_step", 99),
        "baseline_tr.tr_step.share": share("baseline_tr.tr_step"),
        "baseline_tr.zero_cmd_ratio":
            counters["baseline_tr.zero_cmd"] / tr_calls if tr_calls else 0.0,
        "io.write_episode_jsonl.ms_p50": ms("io.write_episode_jsonl", 50),
        "io.write_episode_jsonl.mb_per_s": per_s("io.write_episode_jsonl", nbytes) / 1e6,
        "io.write_episode_jsonl.share": share("io.write_episode_jsonl"),
        "io.write_track_log.mb_per_s": per_s("io.write_track_log", nbytes) / 1e6,
        "io.read_track_log.rows_per_s": per_s("io.read_track_log", nrows),
        "io.read_track_log.share": share("io.read_track_log"),
        "io.read_field.ms_p50": ms("io.read_field", 50),
        "io.read_field.share": share("io.read_field"),
        "io.write_plan.ms_p50": ms("io.write_plan", 50),
        "metrics.compute_report.ms_p50": ms("metrics.compute_report", 50),
        "metrics.compute_report.share": share("metrics.compute_report"),
        "cli.self_share": (wall_s - root_busy) / wall_s,
    }

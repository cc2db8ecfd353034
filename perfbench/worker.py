"""One pass of one workload in a fresh interpreter.

The launcher (run.py) starts this script with ``src`` on PYTHONPATH and the
pass directory as working directory. It imports fipp, generates the
workload's inputs, prints READY with the host-speed samples taken meanwhile
(speed.py), then drives ``fipp.cli.main`` one command at a time (closed
loop, one client) and writes ``result.json``, plus ``spans.json`` when
traced. It never checks outputs; the launcher does.

    python3 perfbench/worker.py --workload sweep --seed 1 --setup-only
    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 30
    python3 perfbench/worker.py --workload sweep --seed 1 --ops 3 --trace
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import workloads  # noqa: E402


def setup(workload: str, seed: int) -> list[dict]:
    """Imports and input generation: everything ``setup_s`` counts."""
    import numpy  # noqa: F401
    import fipp.cli  # noqa: F401

    if workload == "offline":
        from fipp.io import write_track_log
        from fipp.sim import generate_scenario, simulate_tracks

        scenario = generate_scenario(
            "intersection", workloads.OFFLINE_PEDS, workloads.offline_scenario_seed(seed)
        )
        write_track_log(
            workloads.TRACKS_FILE, simulate_tracks(scenario, workloads.OFFLINE_DURATION)
        )
    return workloads.ops(workload, seed)


def run_ops(ops: list[dict], deadline: float | None, limit: int | None,
            min_ops: int) -> tuple[list[dict], float]:
    """Run operations in order until the deadline passes (after at least
    ``min_ops``) or ``limit`` ran. Return what ran, with each operation's
    start and end, and the wall time of the whole loop."""
    from fipp.cli import main

    done = []
    start_all = time.perf_counter()
    with open(os.devnull, "w") as sink:
        for op in ops:
            if limit is not None and len(done) >= limit:
                break
            if deadline is not None and len(done) >= min_ops \
                    and time.perf_counter() >= deadline:
                break
            errors = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
                    rc = main(op["argv"])
            except SystemExit as exc:  # argparse rejects a command line
                rc = exc.code if isinstance(exc.code, int) else 2
            done.append({"id": op["id"], "rc": rc, "t": [start, time.perf_counter()]})
            if rc != 0:
                done[-1]["stderr"] = errors.getvalue()[-2000:]
    return done, time.perf_counter() - start_all


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    sampler = speed.Sampler()
    sampler.start()
    try:
        return run_pass(args, sampler)
    finally:
        sampler.stop()


def run_pass(args: argparse.Namespace, sampler: speed.Sampler) -> int:
    """Set up, report READY with the set-up's speed samples, then run the
    pass and write its result, with the pass's own speed samples."""
    ops = setup(args.workload, args.seed)
    print("READY " + json.dumps(sampler.samples), flush=True)
    if args.setup_only:
        return 0
    if args.ops is not None:
        # The fixed-prefix passes of a traced run compare with each other
        # unsampled, so the spans hold fipp's time only.
        sampler.stop()
    sampler.samples.clear()

    import numpy

    result = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
    }
    min_ops = workloads.min_ops(args.workload)
    deadline = None if args.seconds is None else time.perf_counter() + args.seconds
    if args.trace:
        import tracer as tracing

        tr = tracing.Tracer()
        before = tracing.traced_originals()
        with tracing.traced(tr):
            done, wall = run_ops(ops, deadline, args.ops, min_ops)
        result["wrappers_restored"] = tracing.traced_originals() == before
        result["counters"] = tr.counters
        with open("spans.json", "w") as fh:
            json.dump(tr.spans, fh)
    else:
        done, wall = run_ops(ops, deadline, args.ops, min_ops)
    sampler.stop()
    result.update(
        ops=done,
        samples=sampler.samples,
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

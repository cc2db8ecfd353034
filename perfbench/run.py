"""fipp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run from the repository root. Each pass of the workload runs in a fresh
interpreter (perfbench/worker.py) that imports fipp from ``src``; this
launcher only starts workers, checks their outputs and reports. With
``--trace 0`` it reports the end-to-end metrics of a run that lasts
``--seconds``; with ``--trace 1`` it runs a fixed prefix of the workload
twice, untraced and traced, checks that both passes wrote the same bytes and
reports the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code is
0 when every output passed its checks and 1 when the correctness gate
failed; 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Set-ups per untraced run: SETUP_EACH_SIDE set-up-only workers before the
# measured pass, its own set-up, and SETUP_EACH_SIDE after it, so that
# setup_s is a median over the whole run.
SETUP_EACH_SIDE = 2
WORKER_TIMEOUT = 150.0  # s; the longest pass a run may take

# The workload's own name for each generic end-to-end metric, as printed.
ALIASES = {
    "sweep": {"ops_per_s": "episodes_per_s", "work_per_s": "sim_steps_per_s",
              "op_ms_p50": "step_ms_p50"},
    "tr_crowd": {"ops_per_s": "episodes_per_s", "work_per_s": "sim_steps_per_s",
                 "op_ms_p50": "episode_ms_p50"},
    "offline": {"ops_per_s": "plan_queries_per_s", "work_per_s": "extract_rows_per_s",
                "op_ms_p50": "plan_query_ms_p50"},
}
P90_NAMES = {"tr_crowd": "episode_ms_p90", "offline": "plan_query_ms_p90"}
P90_MIN_SAMPLES = 100


class WorkerError(RuntimeError):
    pass


def run_worker(root: str, cwd: str, args: list[str]) -> tuple[float, float]:
    """Run one worker to its end; return the seconds until it reported
    READY (interpreter start, imports and input generation), as measured
    and at reference speed (speed.py)."""
    os.makedirs(cwd, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    err_path = os.path.join(cwd, "worker.err")
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
        )
    ready = proc.stdout.readline().split(" ", 1)
    end = time.perf_counter()
    try:
        proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker in {cwd} timed out") from None
    if proc.returncode != 0 or len(ready) != 2 or ready[0] != "READY":
        with open(err_path) as fh:
            raise WorkerError(f"worker in {cwd} exited {proc.returncode}: {fh.read()[-2000:]}")
    return speed.at_reference(json.loads(ready[1]), start, end)


def run_pass(root: str, cwd: str, args: list[str]) -> tuple[dict, tuple[float, float]]:
    """Run a measured pass; return its result and its set-up time."""
    setup = run_worker(root, cwd, args)
    with open(os.path.join(cwd, "result.json")) as fh:
        return json.load(fh), setup


def check_pass(workload: str, seed: int, cwd: str, done: list[dict]) -> list[dict]:
    ops = workloads.ops(workload, seed, limit=len(done))
    return [checks.check(op, d["rc"], cwd) for op, d in zip(ops, done)]


def stamp(root: str, workload: str, seed: int, worker: dict) -> dict:
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "fipp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": src.hexdigest(), "python": worker["python"],
            "numpy": worker["numpy"], "cores": worker["cores"],
            "workload": workload, "seed": seed}


def metric_units(root: str, kind: str) -> dict[str, str]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def end_to_end(workload: str, plain: dict, results: list[dict],
               timed: list[tuple[float, float]], setups: list[tuple[float, float]],
               rows: int, units: dict) -> tuple[dict, list]:
    """The end-to-end metrics, at reference speed, and the figures printed
    under the workload's own names as ``(name, value, measured value, unit,
    samples)``. ``timed`` holds each operation's (measured, reference)
    seconds, ``setups`` the same for each set-up."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    steps = sum(r["steps"] for r in results)
    ids = [d["id"][0] for d in plain["ops"]]

    def rates(secs: list[float]) -> dict:
        """Throughput and latency from per-operation seconds; ``tail`` is
        the latency sample. A sweep call's latency is its time per
        simulated step: the calls' lengths differ fourfold by kind, so a
        median of whole calls would jump with the mix of kinds."""
        if workload != "offline":
            tail = secs if workload == "tr_crowd" else \
                [x / max(r["steps"], 1) for x, r in zip(secs, results)]
            return {"ops_per_s": attempted / sum(secs), "work_per_s": steps / sum(secs),
                    "op_ms_p50": statistics.median(tail) * 1e3, "tail": tail}
        queries = [x for x, i in zip(secs, ids) if i == "q"]
        return {"ops_per_s": len(queries) / sum(queries),
                "work_per_s": statistics.median(rows / x for x, i in zip(secs, ids) if i == "e"),
                "op_ms_p50": statistics.median(queries) * 1e3, "tail": queries}

    measured = rates([m for m, _ in timed])
    metrics = rates([r for _, r in timed])
    ref_tail = metrics.pop("tail")
    n_tail = len(ref_tail)
    if workload == "offline":
        samples = {"ops_per_s": f"{n_tail} queries",
                   "work_per_s": f"median of {ids.count('e')} extracts of {rows} rows",
                   "op_ms_p50": f"{n_tail} queries"}
    else:
        samples = {"ops_per_s": f"{attempted} episodes", "work_per_s": f"{steps} steps",
                   "op_ms_p50": f"{n_tail} " + ("bench calls of 2 episodes"
                                                if workload == "sweep" else "episodes")}
    figures = [
        ("setup_s", statistics.median(r for _, r in setups),
         statistics.median(m for m, _ in setups), "s",
         f"median of {len(setups)}: " + ", ".join(f"{r:.3f}" for _, r in setups)),
        ("peak_rss_mb", plain["peak_rss_mb"], None, "MB", "worker process"),
        ("failed_ops_share", failed / attempted, None, "share", f"{failed} of {attempted}"),
    ]
    figures += [(ALIASES[workload][k], metrics[k], measured[k], units[k], text)
                for k, text in samples.items()]
    if workload in P90_NAMES and n_tail >= P90_MIN_SAMPLES:
        figures.append((P90_NAMES[workload], tracer.pct(ref_tail, 90) * 1e3,
                        tracer.pct(measured["tail"], 90) * 1e3, "ms", f"{n_tail} samples"))
    speeds = [speed.REF_S / x for _, x in plain["samples"]]
    figures.append(("speed_vs_reference", statistics.mean(speeds), None, "ratio",
                    f"{len(speeds)} samples"))
    metrics.update(setup_s=figures[0][1], peak_rss_mb=plain["peak_rss_mb"],
                   ok_ops_share=(attempted - failed) / attempted)
    return metrics, figures


def per_layer(workload: str, seed: int, work: str, plain: dict, traced: dict,
              results: list[dict], errors: list[str]) -> dict:
    """Per-layer metrics of the traced pass; marks every operation whose
    traced outputs differ from the untraced ones as failed."""
    traced_dir = os.path.join(work, "traced")
    for d, r, t in zip(plain["ops"], results,
                       check_pass(workload, seed, traced_dir, traced["ops"])):
        if t["digest"] != r["digest"] or t["failed"]:
            r["failed"] = r["attempted"]
            errors.append(f"{d['id']}: traced pass failed or wrote different bytes")
    if not traced["wrappers_restored"]:
        errors.append("traced run left wrappers installed")
    with open(os.path.join(traced_dir, "spans.json")) as fh:
        spans = json.load(fh)
    metrics = tracer.layer_metrics(
        spans, traced["counters"], traced["wall_s"], sum(r["steps"] for r in results),
        lambda path: os.path.getsize(os.path.join(traced_dir, path)),
        lambda path: checks.data_rows(os.path.join(traced_dir, path)),
    )
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return metrics


def run(root: str, workload: str, seed: int, seconds: float, trace: bool) -> int:
    base = os.path.join(HERE, "_runs")
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    work = os.path.join(base, f"{name}-{os.getpid()}")
    common = ["--workload", workload, "--seed", str(seed)]
    try:
        if trace:
            n_ops = str(workloads.trace_op_count(workload, seconds))
            plain, _ = run_pass(root, os.path.join(work, "untraced"), common + ["--ops", n_ops])
            traced, _ = run_pass(root, os.path.join(work, "traced"),
                                 common + ["--ops", n_ops, "--trace"])
            setups = None
        else:
            def setup_only(k: int) -> tuple[float, float]:
                return run_worker(root, os.path.join(work, f"setup{k}"),
                                  common + ["--setup-only"])

            setups = [setup_only(k) for k in range(SETUP_EACH_SIDE)]
            plain, setup = run_pass(root, os.path.join(work, "untraced"),
                                    common + ["--seconds", str(seconds)])
            setups += [setup] + [setup_only(k)
                                 for k in range(SETUP_EACH_SIDE, 2 * SETUP_EACH_SIDE)]
            traced = None
        record = report(root, workload, seed, work, plain, traced, setups)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(base, f"{name}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


def report(root, workload, seed, work, plain, traced, setups) -> dict:
    """Check outputs, compute metrics, print the readable report and return
    the run's record."""
    untraced_dir = os.path.join(work, "untraced")
    results = check_pass(workload, seed, untraced_dir, plain["ops"])
    errors = [e for r in results for e in r["errors"]]
    ops = [{"id": d["id"], "s": d["t"][1] - d["t"][0], "steps": r["steps"],
            "digest": r["digest"]} for d, r in zip(plain["ops"], results)]
    figures = []
    if traced is None:
        units = metric_units(root, "end_to_end")
        rows = checks.data_rows(os.path.join(untraced_dir, workloads.TRACKS_FILE)) \
            if workload == "offline" else 0
        timed = [speed.at_reference(plain["samples"], *d["t"]) for d in plain["ops"]]
        for op, (m, r) in zip(ops, timed):
            op.update(s=m, s_ref=r)
        metrics, figures = end_to_end(workload, plain, results, timed, setups, rows, units)
    else:
        units = metric_units(root, "per_layer")
        metrics = per_layer(workload, seed, work, plain, traced, results, errors)
    failed = sum(r["failed"] for r in results)
    record = {
        "stamp": stamp(root, workload, seed, plain),
        "correct": not errors and failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "errors": errors[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "figures": {n: {"value": v, "measured": m, "unit": u, "samples": s}
                    for n, v, m, u, s in figures},
        "ops": ops,
    }

    st = record["stamp"]
    print(f"fipp benchmark: workload={workload} seed={seed} trace={int(traced is not None)} "
          f"git={st['git_sha']} src_sha256={st['src_sha256'][:16]} python={st['python']} "
          f"numpy={st['numpy']} cores={st['cores']}")
    for name, value, measured, unit, samples in figures:
        also = "" if measured is None else f" (measured {measured:.6g})"
        print(f"  {name} = {value:.6g} {unit}{also}  [{samples}]")
    for name, entry in record["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    combined = hashlib.sha256("".join(f"{o['id']}={o['digest']}\n" for o in ops).encode())
    print(f"  outputs sha256 = {combined.hexdigest()}  ({len(ops)} operations)")
    for e in errors[:10]:
        print(f"  FAILED: {e}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fipp", "__init__.py")):
        print("error: run from the repository root; src/fipp is missing", file=sys.stderr)
        return 2
    return run(root, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

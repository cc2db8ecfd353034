"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads sweep,tr_crowd,offline --seeds 1-10
    python3 perfbench/collect.py --workloads sweep --seeds 11-15 --out perfbench/baseline.json

Each run is a separate ``run.py`` process, one after another. For every
end-to-end metric it prints the median, the quartiles and the spread
(interquartile distance over the median) against the metric's bound in
BENCHMARK.json, and flags any spread above a third of it. Every run lasts
BENCHMARK.json's ``run_seconds``. ``--out`` also records the
values, the per-layer metrics of one traced run per workload and the run
stamps as a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    with open(os.path.join(HERE, "_runs", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        result["record"] = json.load(fh)
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="sweep,tr_crowd,offline")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    baseline = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            start = time.perf_counter()
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.1f} s): " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values)
            s["values"] = values
            summary[name] = s
            limit = spec["bound"] / 3
            flag = "" if s["spread"] <= limit else "  ABOVE bound/3"
            ok = ok and s["spread"] <= spec["bound"]
            print(f"  {workload:9s} {name:13s} median={s['median']:.5g} {spec['unit']} "
                  f"q1={s['q1']:.5g} q3={s['q3']:.5g} spread={s['spread']:.3f} "
                  f"bound={spec['bound']}{flag}", flush=True)
        entry = {"end_to_end": summary,
                 "stamp": runs[0]["record"]["stamp"],
                 "figures": {r["record"]["stamp"]["seed"]: r["record"]["figures"] for r in runs}}
        if args.out:
            start = time.perf_counter()
            traced = run_once(workload, seeds[0], seconds, 1)
            print(f"{workload} seed {seeds[0]} traced ({time.perf_counter() - start:.1f} s)")
            entry["traced"] = {"seed": seeds[0], "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                               "digests": {o["id"]: o["digest"]
                                           for o in traced["record"]["ops"]}}
        baseline["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

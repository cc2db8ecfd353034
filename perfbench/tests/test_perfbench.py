"""Tests of the benchmark itself (not of fipp).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import speed
import tracer
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


# --- span arithmetic --------------------------------------------------------

def _span(name, start, end, parent, busy=None, count=1):
    return [name, start, end, parent, end - start if busy is None else busy, count, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 5.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("d", 6.0, 9.5, 0, busy=3.0, count=5),  # aggregate: 5 calls, 3 s busy
        _span("e", 11.0, 12.0, -1),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 3.0, 1.0])


def test_layer_shares_and_cli_remainder():
    spans = [
        _span("sim.run_episode", 0.0, 8.0, -1),
        _span("planner.plan", 1.0, 4.0, 0),
        _span("sim.ped_step", 4.0, 7.0, 0, busy=2.0, count=40),
    ]
    counters = {"planner.plan.expanded_total": 7, "planner.plan.no_path": 1,
                "baseline_tr.zero_cmd": 0}
    m = tracer.layer_metrics(spans, counters, 10.0, 5, lambda p: 0, lambda p: 0)
    assert m["sim.run_episode.self_share"] == pytest.approx(0.3)
    assert m["planner.plan.share"] == pytest.approx(0.3)
    assert m["sim.ped_step.share"] == pytest.approx(0.2)
    assert m["sim.ped_step.calls"] == 40
    assert m["sim.ped_step.us_mean"] == pytest.approx(2.0 / 40 * 1e6)
    assert m["cli.self_share"] == pytest.approx(0.2)
    assert m["planner.plan.expanded_total"] == 7
    assert m["planner.plan.no_path"] == 1
    assert set(m) | {"trace.overhead_ratio"} == {
        x["name"] for x in _bench_spec()["per_layer"]
    }


def test_consecutive_short_calls_fold_into_one_span_per_parent_step():
    t = tracer.Tracer()
    outer = t.enter("outer")
    for k in range(3):
        t.add_call("sim.ped_step", k, k + 0.5)
    inner = t.enter("inner")
    t.exit(inner)
    for k in range(2):
        t.add_call("sim.ped_step", 10 + k, 10.25 + k)
    t.exit(outer)
    names = [(s[tracer.NAME], s[tracer.PARENT], s[tracer.COUNT]) for s in t.spans]
    assert names == [("outer", -1, 1), ("sim.ped_step", 0, 3), ("inner", 0, 1),
                     ("sim.ped_step", 0, 2)]
    assert t.spans[1][tracer.BUSY] == pytest.approx(1.5)
    assert t.spans[3][tracer.BUSY] == pytest.approx(0.5)


# --- speed samples ----------------------------------------------------------

def test_reference_time_drops_sample_time_and_scales_by_mean_speed():
    ref = speed.REF_S
    samples = [[1.0, ref], [2.0, 2 * ref], [5.0, ref / 2]]
    own, at_ref = speed.at_reference(samples, 0.5, 2.5)
    assert own == pytest.approx(2.0 - 3 * ref)
    assert at_ref == pytest.approx(own * (1.0 + 0.5) / 2)
    # No sample inside: the nearest one (ending before or starting after).
    assert speed.at_reference(samples, 2.1, 2.2)[1] == pytest.approx(0.1 * 0.5)
    assert speed.at_reference(samples, 4.8, 4.9)[1] == pytest.approx(0.1 * 2.0)
    assert speed.at_reference(samples, 6.0, 6.5)[1] == pytest.approx(0.5 * 2.0)


# --- wrappers ---------------------------------------------------------------

def test_wrappers_are_removed_after_a_traced_block_even_on_error():
    import fipp.cli
    import fipp.sim

    before = tracer.traced_originals()
    with pytest.raises(RuntimeError):
        with tracer.traced(tracer.Tracer()):
            assert fipp.sim.ped_step is not before["fipp.sim.ped_step"]
            assert fipp.cli.plan is not before["fipp.cli.plan"]
            raise RuntimeError("stop")
    assert tracer.traced_originals() == before


def _simulate(out_dir, traced):
    from fipp.cli import main

    argv = ["simulate", "--planner", "fipp", "--scenario", "intersection", "--seed", "3",
            "--peds", "12", "--out", "op", "--tracks-out", "op/tracks.txt"]
    cwd = os.getcwd()
    os.makedirs(out_dir)
    os.chdir(out_dir)
    try:
        t = tracer.Tracer()
        with contextlib.redirect_stdout(io.StringIO()):
            if traced:
                with tracer.traced(t):
                    assert main(argv) == 0
            else:
                assert main(argv) == 0
    finally:
        os.chdir(cwd)
    return t


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path):
    _simulate(tmp_path / "plain", traced=False)
    t = _simulate(tmp_path / "traced", traced=True)
    names = {s[tracer.NAME] for s in t.spans}
    assert {"sim.run_episode", "planner.plan", "planner.Replanner.step",
            "flowfield.deposit_frame", "sim.ped_step", "io.write_episode_jsonl"} <= names
    assert t.counters["planner.plan.expanded_total"] > 0
    assert checks.tree_digest(str(tmp_path / "plain")) == \
        checks.tree_digest(str(tmp_path / "traced"))


# --- correctness gate -------------------------------------------------------

def _plan_file(tmp_path, summary, cells=((2, 3), (3, 4))):
    out = tmp_path / "queries" / "q00000"
    out.mkdir(parents=True)
    rows = "".join(f"{i},{j},0.0,0.0,0.0,0.0\n" for i, j in cells)
    (out / "plan.txt").write_text(f"# i,j,cx,cy,edge_cost_T,edge_cost_F\n{rows}{summary}\n")
    return {"argv": ["plan", "f", "--out", "queries/q00000"],
            "start_cell": [2, 3], "goal_cell": [3, 4]}


def test_plan_check_accepts_consistent_costs(tmp_path):
    op = _plan_file(tmp_path, "# total C_T=1.5 C_F=0.25 C_phi=1.75 expanded=3")
    assert checks.check(op, 0, str(tmp_path))["failed"] == 0


@pytest.mark.parametrize("summary,cells", [
    ("# total C_T=1.5 C_F=0.25 C_phi=1.7500001 expanded=3", ((2, 3), (3, 4))),
    ("# total C_T=1.5 C_F=0.25 C_phi=1.75 expanded=3", ((2, 3), (3, 5))),
    ("# total C_T=1.5 C_F=0.25 C_phi=1.75 expanded=3", ((1, 3), (3, 4))),
])
def test_plan_check_rejects_cost_mismatch_or_wrong_endpoints(tmp_path, summary, cells):
    op = _plan_file(tmp_path, summary, cells)
    result = checks.check(op, 0, str(tmp_path))
    assert result["failed"] == 1 and result["errors"]


def test_bench_check_counts_missing_episodes(tmp_path):
    op = workloads.ops("sweep", 1, limit=1)[0]
    out = tmp_path / op["argv"][op["argv"].index("--out") + 1]
    (out / "episodes").mkdir(parents=True)
    (out / "report.json").write_text(json.dumps({"episodes": {"fipp": [], "tr": []}}))
    result = checks.check(op, 0, str(tmp_path))
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert checks.check(op, 3, str(tmp_path))["failed"] == 2


def test_workload_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.ops(name, 5, limit=20) == workloads.ops(name, 5, limit=20)
        assert workloads.ops(name, 5, limit=20) != workloads.ops(name, 6, limit=20)


# --- end to end -------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    spec = _bench_spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr + proc.stdout
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = _run(str(tmp_path), "--workload", "sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

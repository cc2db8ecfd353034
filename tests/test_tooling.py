"""The repository's tooling: CI installs numpy, pytest and hypothesis at
the versions the package's ``test`` extra pins (the golden digests are
recorded with that numpy, and the derandomized property tests count cases
among the examples drawn, which depend on the hypothesis version), every
committed ``BENCH_*.json`` record is whole, a failing property test prints
its falsifying example under ``-W error``, a hung run has a limit, and the
public names the benchmark and users bind stay as they are: every name the
benchmark's tracer wraps still exists."""

from __future__ import annotations

import importlib.util
import inspect
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_PINNED = {"numpy", "pytest", "hypothesis"}


def _pins(specs) -> dict[str, str]:
    """The numpy, pytest and hypothesis versions among ``name==version`` specs."""
    return {
        name: version
        for name, version in (spec.split("==", 1) for spec in specs)
        if name in _PINNED
    }


def test_ci_installs_the_versions_the_test_extra_pins():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    ci = re.findall(r'"([\w.-]+==[^"]+)"', workflow)
    assert set(_pins(extra)) == _PINNED
    assert _pins(ci) == _pins(extra)


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name
)
def test_every_bench_record_parses_and_says_what_it_measured(path):
    # A speed claim cites a committed BENCH record: what it claims, the
    # command it ran, the host, the order of the runs, and the two sides.
    record = json.loads(path.read_text(encoding="utf-8"))
    assert {"claim", "command", "host", "order", "parent", "change"} <= set(record)


def _claimed(claim: dict) -> tuple[str, str] | None:
    """The (workload, metric) a record's claim names, or None when it names
    no metric. A claim names them as keys, ``{"metric": "ops_per_s",
    "workload": "offline"}``, or as text, ``"offline work_per_s
    (extract_rows_per_s)"``: the workload, the metric, then the workload's
    own name for it."""
    metric = claim.get("metric")
    if metric is None:
        return None
    if "workload" in claim:
        return claim["workload"], metric
    workload, metric, *_ = metric.split()
    return workload, metric


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name
)
def test_every_bench_claim_names_an_end_to_end_metric_of_a_benchmark_workload(path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    claimed = _claimed(json.loads(path.read_text(encoding="utf-8"))["claim"])
    if claimed is None:
        return
    workload, metric = claimed
    assert workload in {w["name"] for w in benchmark["workloads"]}
    assert metric in {m["name"] for m in benchmark["end_to_end"]}


@pytest.mark.parametrize(
    "claim, named",
    [
        ({"metric": None, "gain_claimed": False}, None),
        ({"metric": "ops_per_s", "workload": "offline"}, ("offline", "ops_per_s")),
        ({"metric": "offline work_per_s (extract_rows_per_s)"}, ("offline", "work_per_s")),
        ({"metric": "sweep ops_per_s"}, ("sweep", "ops_per_s")),
    ],
)
def test_a_claim_names_its_metric_in_either_record_style(claim, named):
    assert _claimed(claim) == named


def test_a_failing_property_test_prints_its_falsifying_example_under_w_error(tmp_path):
    # The suite's conftest.py beside a failing @given test, run as CI runs
    # the suite: the report must name the example, not end in INTERNALERROR.
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n",
        encoding="utf-8",
    )
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-W", "error",
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_a_hung_test_prints_its_stack_and_a_hung_ci_job_stops():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        options = tomllib.load(fh)["tool"]["pytest"]["ini_options"]
    assert float(options["faulthandler_timeout"]) > 0
    assert options["filterwarnings"] == ["error"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert re.search(r"^    timeout-minutes: \d+$", workflow, re.MULTILINE)


def test_the_package_exports_exactly_its_public_names():
    # A name leaving or joining ``fipp.__all__`` is a change of the public
    # surface, so it shows here.
    import fipp

    assert fipp.__all__ == [
        "Vec2", "TrackLog", "GridSpec", "FlowParams", "FlowField", "resample_by_arclength",
        "trajectory_deviation", "CostParams", "PlanResult", "NoPathError", "OutOfBoundsError",
        "plan", "Replanner", "tr_step", "Rect", "Lane", "Scenario", "Crowd", "EpisodeLog",
        "generate_scenario", "ped_step", "simulate_tracks", "run_episode", "proxemic_zone",
        "social_violations", "efficiency", "MetricsReport", "compute_report", "compare",
        "__version__",
    ]
    assert all(hasattr(fipp, name) for name in fipp.__all__)


def test_every_public_reader_and_writer_takes_the_file_path_first():
    # perfbench wraps each public function of fipp.io as a span and sizes it
    # by the call's first argument, the file it reads or writes.
    import fipp.io

    public = {
        name: fn for name, fn in vars(fipp.io).items()
        if callable(fn) and not isinstance(fn, type) and not name.startswith("_")
        and fn.__module__ == "fipp.io"
    }
    assert sorted(public) == [
        "read_field", "read_track_log", "write_episode_jsonl", "write_field", "write_json",
        "write_plan", "write_track_log",
    ]
    for name, fn in public.items():
        assert next(iter(inspect.signature(fn).parameters)) == "path", name


def test_every_name_the_benchmark_tracer_wraps_still_exists_in_fipp(monkeypatch):
    # perfbench/tracer.py replaces fipp's functions at the names their
    # callers look up, from outside the package; a refactor that renames
    # one fails here, not only in the benchmark's own checks. The tracer is
    # loaded from its file, and no bytecode is written beside it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = tracer.traced_originals()  # the object bound at each wrapped name
    assert {"fipp.cli.run_episode", "fipp.cli.plan", "fipp.planner.plan", "fipp.sim.ped_step",
            "fipp.io.read_track_log", "fipp.io.read_field"} <= set(originals)
    assert all(callable(fn) for fn in originals.values())

"""The repository's tooling: CI installs numpy, pytest and hypothesis at
the versions the package's ``test`` extra pins (the golden digests are
recorded with that numpy, and the derandomized property tests count cases
among the examples drawn, which depend on the hypothesis version), and
every committed ``BENCH_*.json`` record is whole."""

from __future__ import annotations

import json
import pathlib
import re

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

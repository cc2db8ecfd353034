"""The benchmark's tracer (perfbench/tracer.py) over real `fipp simulate`
runs: every name it wraps is still called through the name it replaces,
and every original is back in place afterwards."""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

from fipp.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import tracer  # noqa: E402


@pytest.mark.parametrize(
    "planner, layers",
    [("fipp", {"sim._swept_cells", "planner.plan"}), ("tr", {"baseline_tr.tr_step"})],
)
def test_a_traced_simulate_records_each_layer_and_restores_the_originals(
    tmp_path, planner, layers
):
    before = tracer.traced_originals()
    t = tracer.Tracer()
    argv = ["simulate", "--scenario", "chaotic", "--peds", "4", "--planner", planner,
            "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()), tracer.traced(t):
        assert main(argv) == 0
    names = {span[tracer.NAME] for span in t.spans}
    assert {"sim.ped_step", "sim.observations"} | layers <= names
    assert tracer.traced_originals() == before

"""The benchmark's tracer (perfbench/tracer.py) over real `fipp simulate`
runs and a real `fipp extract` then `fipp plan`: every name it wraps is
still called through the name it replaces, and every original is back in
place afterwards."""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

from fipp.cli import main
from fipp.io import write_track_log
from fipp.sim import generate_scenario, simulate_tracks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import tracer  # noqa: E402


@pytest.mark.parametrize(
    "planner, layers",
    [
        ("fipp", {"sim._swept_cells", "planner.Replanner.step", "flowfield.deposit_frame",
                  "flowfield.update_field", "planner.plan"}),
        ("tr", {"baseline_tr.tr_step"}),
    ],
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


def test_a_traced_extract_and_plan_record_each_layer_and_restore_the_originals(tmp_path):
    tracks = str(tmp_path / "tracks.csv")
    write_track_log(tracks, simulate_tracks(generate_scenario("single_flow", 6, 1), 2.0))
    field_out, plan_out = str(tmp_path / "field"), str(tmp_path / "plan")
    before = tracer.traced_originals()
    t = tracer.Tracer()
    with contextlib.redirect_stdout(io.StringIO()), tracer.traced(t):
        assert main(["extract", tracks, "--out", field_out]) == 0
        assert main(["plan", os.path.join(field_out, "field.txt"), "--start", "2,10",
                     "--goal", "18,10", "--out", plan_out]) == 0
    names = {span[tracer.NAME] for span in t.spans}
    assert {
        "io.read_track_log", "flowfield.deposit_frame", "flowfield.update_field", "io.write_field",
        "io.read_field", "planner.plan", "io.write_plan",
    } <= names
    assert tracer.traced_originals() == before

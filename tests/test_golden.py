"""Golden behaviour digest: SHA-256 of the bytes a small bench sweep, one
plan query, one field extraction, one simulate run with a track log and
one simulate run in which the rollout baseline freezes write.

Any change to the simulator, the field, the planner or the writers that
moves an output byte shows up here. A change that moves a digest on purpose
must say why in CHANGES.md and record the new digest. The digests depend on
the platform's float behaviour; they were recorded with numpy 2.4.6 on
Python 3.11 (x86-64, Linux).
"""

from __future__ import annotations

import hashlib

from fipp import FlowField, GridSpec, Vec2, generate_scenario, simulate_tracks
from fipp.cli import main
from fipp.io import write_field, write_track_log

BENCH_KINDS = ("chaotic", "single_flow", "double_flow", "intersection")

GOLDEN = {
    "report.json":
        "18376e691343bdb9cd0f447384ea3a37eec771be0242d94fe33af04fbaee4f85",
    "plan.txt":
        "255c5718d0337c9019e867f38ba24489bb30788fe1e9287b01b3c0e8d78adc2d",
    # fipp extract of a fixed intersection crowd at the default cell size and
    # influence radius: pins the bytes of FlowField.update_field.
    "field.txt":
        "46c94e8da27fe1cf932df094a9017442f72bc674fae872830977e37655a6277b",
    "episodes/chaotic-1-fipp.jsonl":
        "399a6126c77a61820fa61246251d28767506bb9c2a8d388309cb4f7a80d9b3be",
    "episodes/chaotic-1-tr.jsonl":
        "b06c0d85bcaaaf76d5e39cdaf26a631beab05186d51dc8f155861c9952270d26",
    "episodes/chaotic-2-fipp.jsonl":
        "74c6fb97c89cd23109cc1f9e4943a529e64971e4221124705d61eb67b8bdbbf7",
    "episodes/chaotic-2-tr.jsonl":
        "3d2aaeee7c41b12dfd7debfc5e03f20b41bc27e5c82301bf7a2983dbf6de7b70",
    "episodes/double_flow-1-fipp.jsonl":
        "486434bd353e0dfc853e4543d215e0cac856c148d661d869ce5ca2546309e505",
    "episodes/double_flow-1-tr.jsonl":
        "3ebc3d002f67d8e1d51eda7c609992c30b36bfd41c5de204de3bcba5073b9e87",
    "episodes/double_flow-2-fipp.jsonl":
        "7ff05f455ada759d51cd29e8461243e67f272ef389b126464fb69aca2f7417b1",
    "episodes/double_flow-2-tr.jsonl":
        "611b52ddb786c97b0fa1085f468499633dca8fcabfb4211523d183cd6e61fb08",
    "episodes/intersection-1-fipp.jsonl":
        "5f3b361c2dc839a4a26d36b1645307b36efe63033c71f2c80c99478271e28246",
    "episodes/intersection-1-tr.jsonl":
        "b8523770f5769b0e014320374f772a173926d1bc0007634b4bda043e9723739f",
    "episodes/intersection-2-fipp.jsonl":
        "fdc82c1b3402c05d373a9c537764a3d461c18773095697c9d9bed0424ca3ba19",
    "episodes/intersection-2-tr.jsonl":
        "1e81769d6a16c2f95a58c4bd601c54bd20ec2ddfa8fe4dd791cf2a4936cf6560",
    "episodes/single_flow-1-fipp.jsonl":
        "4c24753c4428d1a8df65ef93c56ce1c9de42f00f5684653715c526b73fcd464e",
    "episodes/single_flow-1-tr.jsonl":
        "406fcdd3bc96180e158e8d2b00973afa914330f5e899df5b8b5cd6be581e5f44",
    "episodes/single_flow-2-fipp.jsonl":
        "4d1a21a25b12c5c405c92941fa0665e85389ad6363425ade15ed053356200b75",
    "episodes/single_flow-2-tr.jsonl":
        "f2657c6f8f6fe3e0cbcd4ae3aea5c1fd14a5bdc1dd9718bc9a2051eff5deb6ef",
}

# fipp simulate --planner tr --scenario double_flow --seed 7 --tracks-out:
# pins the track log's bytes (field.txt pins only what a track log parses
# to) and the episode log written beside it.
SIMULATE_GOLDEN = {
    "episode.jsonl":
        "db27bba0cc9be1bcde2102929f3a6182dcbc210ee95a8005aff4784fd7143e5e",
    "tracks.txt":
        "01c8084011e5480033af014a3db18f78fe26077134f2e5c85243a33baa528742",
}

# fipp simulate --planner tr --scenario freeze_wall --seed 3: the one
# golden episode that ends frozen (161 steps). At 103 of its 160 choices
# the collision test rejects 9 of the 15 rollouts, and the stop command
# scores lowest of the rest, until the freeze limit ends the episode.
FREEZE_GOLDEN = {
    "episode.jsonl":
        "a7e0b356b5f9272d8f4e05ead88f6c5ee76def5f69e46888ac640d749451c244",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _golden_field(path) -> None:
    """A 40x40 field whose forces are small exact binary fractions, so the
    file is the same bytes on every platform: every cell has its own
    direction, some are zero."""
    spec = GridSpec(Vec2(0.0, 0.0), 0.5, 40, 40)
    field = FlowField(spec)
    for j in range(spec.height):
        for i in range(spec.width):
            field.force[j, i, 0] = ((7 * i + 3 * j) % 11 - 5) / 4.0
            field.force[j, i, 1] = ((5 * i - 2 * j) % 13 - 6) / 8.0
    write_field(str(path), field)


def test_golden_bench_and_plan_bytes(tmp_path, capsys):
    bench_out = tmp_path / "bench"
    rc = main([
        "bench", "--kinds", ",".join(BENCH_KINDS), "--seeds", "1-2",
        "--jobs", "1", "--out", str(bench_out),
    ])
    assert rc == 0
    field_path = tmp_path / "field.txt"
    _golden_field(field_path)
    plan_out = tmp_path / "plan"
    rc = main([
        "plan", str(field_path), "--start", "1.2,3.7", "--goal", "18.9,16.1",
        "--out", str(plan_out),
    ])
    assert rc == 0
    tracks = tmp_path / "tracks.csv"
    crowd = generate_scenario("intersection", 30, seed=7)
    write_track_log(str(tracks), simulate_tracks(crowd, 6.0))
    extract_out = tmp_path / "extract"
    assert main(["extract", str(tracks), "--out", str(extract_out)]) == 0
    capsys.readouterr()

    got = {
        "report.json": _digest(bench_out / "report.json"),
        "plan.txt": _digest(plan_out / "plan.txt"),
        "field.txt": _digest(extract_out / "field.txt"),
    }
    for log in sorted((bench_out / "episodes").iterdir()):
        got[f"episodes/{log.name}"] = _digest(log)
    assert len(got) == 3 + 2 * 2 * len(BENCH_KINDS)
    assert got == GOLDEN


def test_golden_simulate_episode_and_track_log_bytes(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main([
        "simulate", "--planner", "tr", "--scenario", "double_flow", "--seed", "7",
        "--out", str(out), "--tracks-out", str(tmp_path / "tracks.txt"),
    ])
    assert rc == 0
    capsys.readouterr()
    got = {
        "episode.jsonl": _digest(out / "episode.jsonl"),
        "tracks.txt": _digest(tmp_path / "tracks.txt"),
    }
    assert got == SIMULATE_GOLDEN


def test_golden_frozen_rollout_episode_bytes(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main([
        "simulate", "--planner", "tr", "--scenario", "freeze_wall", "--seed", "3",
        "--out", str(out),
    ])
    assert rc == 0
    assert "frozen" in capsys.readouterr().out
    assert {"episode.jsonl": _digest(out / "episode.jsonl")} == FREEZE_GOLDEN

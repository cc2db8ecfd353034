"""Golden behaviour digest: SHA-256 of the bytes a small bench sweep, one
plan query and one field extraction write.

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
        "a3a0bb00bbdef009fcfa8703c537255a7fcdeafbe9919a14b8bf71347ad63d85",
    "episodes/double_flow-1-tr.jsonl":
        "5bc0d6567a18d9d6cf234972ece1e515c92c22d32df9a5fb17ea521612c92f6a",
    "episodes/double_flow-2-fipp.jsonl":
        "fec30d37f3384829f97a44e6b81b2c425ae375e5747deede37c4e87c36f0efca",
    "episodes/double_flow-2-tr.jsonl":
        "5e9a927aa76bc48ddec712c9213384bb3c4f4d42cdf8378b2503e8e996418609",
    "episodes/intersection-1-fipp.jsonl":
        "69eadb8b92a3e1f4c14919ac7299edbe1027c341f182d77ce9574c0dd0826dbe",
    "episodes/intersection-1-tr.jsonl":
        "1f0519e4700b0bf33886ece54d1c9dc32d37c0a0674b22750bf4d2cd8ab8a1cb",
    "episodes/intersection-2-fipp.jsonl":
        "0da9393be813ca45c2bd4d0de61afdc51b0b7d3dd311d5ed822b493b787d7a1b",
    "episodes/intersection-2-tr.jsonl":
        "fbcd1677147ebcf4b3c686a2f0d4055fe2ae56d56b1683ed9669b3c333c8ce51",
    "episodes/single_flow-1-fipp.jsonl":
        "886ebf2e5965834f480fd49d0d59c4dd8c883f02ad78c2ce1f60027defcb14c1",
    "episodes/single_flow-1-tr.jsonl":
        "eaaea053cc0768fbdf217982f0ec925bbfffd3f86f252229f3116bba0e8b68d1",
    "episodes/single_flow-2-fipp.jsonl":
        "3218dd65e51f953388707cd0de17cfd0c650d6201791a4e5a02541a9676ab2ef",
    "episodes/single_flow-2-tr.jsonl":
        "8fc2780310082c67203f7da28d5bb958e1f7f424f4c0567065aab1149a1ebc5c",
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

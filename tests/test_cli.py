"""Command-line tests: config resolution, seed parsing, each subcommand
end to end on small fixtures, and the exit-code contract."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fipp import FlowField, GridSpec, TrackLog, Vec2
from fipp.cli import DEFAULTS, build_parser, main, parse_seeds, resolve_config
from fipp.io import read_field, read_track_log
from fipp.flowfield import FlowParams
from tracklogs import columns, one_frame


def _laminar_log(path):
    """Twelve walkers in single file crossing the world left to right at the
    lane speed, two metres apart, logged only while inside the world."""
    lines = ["# t,id,x,y,vx,vy"]
    for k in range(300):
        t = k * 0.1
        for ped in range(12):
            x = 0.25 - 2.0 * ped + 1.2 * t
            if 0.0 < x < 20.0:
                lines.append(f"{t!r},{ped},{x!r},10.25,1.2,0.0")
    path.write_text("\n".join(lines) + "\n")


def _episode_lines(path) -> list[dict]:
    """An episode log's lines decoded: meta, one per step, outcome."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def _uniform_field(path, fx=0.5, fy=0.0):
    spec = GridSpec(Vec2(0.0, 0.0), 0.5, 40, 40)
    field = FlowField(spec)
    field.force[:, :, 0] = fx
    field.force[:, :, 1] = fy
    from fipp.io import write_field

    write_field(str(path), field)
    return field


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_resolve_config_precedence(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"lambda": 3.5, "cell-size": 0.25, "seed": 9}')
    parser = build_parser()
    ns = parser.parse_args(["simulate", "--config", str(cfg_file), "--seed", "11"])
    cfg = resolve_config(ns)
    assert cfg["lambda_flow"] == 3.5  # file overrides the default
    assert cfg["cell_size"] == 0.25  # dashed keys normalize
    assert cfg["seed"] == 11  # explicit flag beats the file
    assert cfg["xi"] == DEFAULTS["xi"]  # untouched default survives


def test_resolve_config_defaults_without_file():
    ns = build_parser().parse_args(["simulate"])
    cfg = resolve_config(ns)
    assert cfg["lambda_flow"] == 2.0
    assert cfg["planner"] == "fipp"
    assert cfg["scenario"] == "single_flow"


def test_flag_overrides_without_config(tmp_path):
    ns = build_parser().parse_args(["simulate", "--lambda", "0.0", "--planner", "tr"])
    cfg = resolve_config(ns)
    assert cfg["lambda_flow"] == 0.0
    assert cfg["planner"] == "tr"


def test_non_object_config_is_an_input_error(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("[1, 2, 3]")
    rc = main(["simulate", "--config", str(cfg_file)])
    assert rc == 2
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"lambd": 3}', "unknown config key 'lambd'"),
        ('{"peds": "x"}', "config key 'peds': invalid int value: 'x'"),
        ('{"peds": 7.5}', "config key 'peds': invalid int value: 7.5"),
        ('{"cell-size": "wide"}', "config key 'cell-size': invalid float value: 'wide'"),
        ('{"seed": null}', "config key 'seed': invalid int value: None"),
    ],
    ids=["unknown-key", "text-for-int", "fraction-for-int", "text-for-float", "null"],
)
def test_config_key_or_value_the_flags_would_reject_is_an_input_error(
    tmp_path, capsys, text, message
):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg_file}: {message}\n"
    assert not out.exists()


def test_config_values_parse_as_their_flags_would(tmp_path):
    # Numbers in strings, JSON numbers, and null where the default is null.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"peds": "7", "h": "1.5", "lambda": 3, "seeds": 12}')
    cfg = resolve_config(build_parser().parse_args(["bench", "--config", str(cfg_file)]))
    got = {key: cfg[key] for key in ("peds", "h", "lambda_flow", "seeds")}
    assert got == {"peds": 7, "h": 1.5, "lambda_flow": 3.0, "seeds": "12"}
    assert [type(v) for v in got.values()] == [int, float, float, str]
    cfg_file.write_text('{"peds": null}')
    cfg = resolve_config(build_parser().parse_args(["bench", "--config", str(cfg_file)]))
    assert cfg["peds"] is None


def test_parse_seeds_forms():
    assert parse_seeds("5") == [1, 2, 3, 4, 5]
    assert parse_seeds("3-6") == [3, 4, 5, 6]
    assert parse_seeds("7,2,9") == [7, 2, 9]
    assert parse_seeds(12) == list(range(1, 13))  # config files may pass ints
    assert parse_seeds("0,3") == [0, 3]  # seed 0 is a seed


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


def test_extract_paints_the_walked_corridor(tmp_path, capsys):
    tracks = tmp_path / "tracks.csv"
    _laminar_log(tracks)
    out = tmp_path / "out"
    rc = main(["extract", str(tracks), "--out", str(out)])
    assert rc == 0
    assert "300 frames" in capsys.readouterr().out

    field = read_field(str(out / "field.txt"))
    assert field.spec.width == field.spec.height == 40
    # Cells along the walked row push with xi * lane speed.
    assert float(field.force[20, 10, 0]) == pytest.approx(0.6, abs=1e-3)
    assert float(field.force[20, 30, 0]) == pytest.approx(0.6, abs=1e-3)
    assert abs(float(field.force[20, 10, 1])) < 1e-9
    # One row out the crowd prior takes over; far away nothing is painted.
    assert float(field.force[21, 10, 0]) == pytest.approx(1.2, abs=1e-3)
    assert not field.force[:18].any()
    assert not field.force[23:].any()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "extract"
    assert manifest["stats"]["frames"] == 300
    assert manifest["stats"]["dropped_observations"] == 0


def test_extract_force_scale_follows_the_last_frame_alone(tmp_path, capsys):
    # The interaction coefficient is divided by the speed of the last
    # frame's mean velocity. One still walker logged after the crowd makes
    # that speed zero, which switches the neighbour influence off and
    # leaves only the cells' own motion in the field.
    tracks = tmp_path / "tracks.csv"
    _laminar_log(tracks)
    stats = {}
    for name in ("crowd", "still"):
        if name == "still":
            with open(tracks, "a") as fh:
                fh.write("30.0,99,5.25,5.25,0.0,0.0\n")
        out = tmp_path / name
        assert main(["extract", str(tracks), "--out", str(out)]) == 0
        stats[name] = json.loads((out / "manifest.json").read_text())["stats"]
    capsys.readouterr()
    crowd, still = stats["crowd"], stats["still"]
    assert crowd["frame_avg_speed"] == pytest.approx(1.2, abs=1e-12)
    assert crowd["force_max"] == pytest.approx(1.2, abs=1e-3)  # the rows beside the lane
    assert 0.0 < crowd["force_p90"] <= crowd["force_max"]
    assert still["frame_avg_speed"] == 0.0
    assert still["force_max"] < crowd["force_max"]


def test_extract_reports_bad_rows_with_line_numbers(tmp_path, capsys):
    tracks = tmp_path / "bad.csv"
    tracks.write_text("0.0,1,1.0,1.0,0.0,0.0\n0.1,zap\n")
    rc = main(["extract", str(tracks), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert ":2:" in err


@pytest.mark.parametrize("cell_size,h", [("0.5", "30"), ("7", "28")])
def test_extract_with_influence_radius_wider_than_the_grid(tmp_path, capsys, cell_size, h):
    # 40x40 cells with reach 60, and 3x3 cells with reach 4.
    tracks = tmp_path / "tracks.csv"
    _laminar_log(tracks)
    out = tmp_path / "out"
    rc = main(["extract", str(tracks), "--cell-size", cell_size, "--h", h, "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    field = read_field(str(out / "field.txt"))
    assert field.force.any()


@pytest.mark.parametrize(
    "command,where,artifact",
    [("extract", "tracks.csv:3:", "field.txt"), ("predict", "field.txt:6:", "trajectories.csv")],
)
def test_non_finite_input_is_an_input_error_naming_the_line(
    tmp_path, capsys, command, where, artifact
):
    tracks = tmp_path / "tracks.csv"
    tracks.write_text("# t,id,x,y,vx,vy\n0.0,1,1.0,1.0,0.5,0.0\n0.1,1,1.05,1.0,nan,0.0\n")
    field_path = tmp_path / "field.txt"
    _uniform_field(field_path)
    rows = field_path.read_text().splitlines()
    rows[5] = rows[5].rsplit(",", 3)[0] + ",inf,0.0,inf"  # fx of line 6
    field_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    args = {
        "extract": [str(tracks)],
        "predict": [str(field_path), "--start", "1,1"],
    }[command]
    assert main([command, *args, "--out", str(out)]) == 2
    assert where in capsys.readouterr().err
    assert not (out / artifact).exists()


@pytest.mark.parametrize(
    "flag,value,name",
    [("--xi", "nan", "xi"), ("--h", "inf", "h"), ("--h", "nan", "h"),
     ("--cell-size", "nan", "cell_size")],
)
def test_extract_with_a_non_finite_flag_is_an_input_error_naming_it(
    tmp_path, capsys, flag, value, name
):
    tracks = tmp_path / "tracks.csv"
    tracks.write_text("# t,id,x,y,vx,vy\n0.0,1,1.0,1.0,0.5,0.0\n")
    out = tmp_path / "out"
    assert main(["extract", str(tracks), flag, value, "--out", str(out)]) == 2
    assert f"error: {name} must be a finite number, got {value}" in capsys.readouterr().err
    assert not (out / "field.txt").exists()


@pytest.mark.parametrize("flag,name", [("--lambda", "lambda_flow"), ("--cell-size", "cell_size")])
def test_simulate_with_a_non_finite_flag_is_an_input_error_naming_it(tmp_path, capsys, flag, name):
    out = tmp_path / "out"
    assert main(["simulate", flag, "nan", "--out", str(out)]) == 2
    assert f"error: {name} must be a finite number" in capsys.readouterr().err
    assert not (out / "episode.jsonl").exists()


@pytest.mark.parametrize("command", ["extract", "simulate", "bench"])
def test_a_cell_size_whose_diagonal_step_overflows_is_rejected_before_any_input_is_read(
    tmp_path, capsys, command
):
    # 1.5e308 is finite, but the planner's diagonal step sqrt(2) * 1.5e308 is
    # not; the track log extract would read does not even exist.
    out = tmp_path / "out"
    args = [str(tmp_path / "missing.csv")] if command == "extract" else []
    assert main([command, *args, "--cell-size", "1.5e308", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: cell_size 1.5e+308 gives a non-finite diagonal step cost" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_predict_with_a_non_finite_dt_is_an_input_error_naming_it(tmp_path, capsys, value):
    field_path = tmp_path / "field.txt"
    _uniform_field(field_path)
    out = tmp_path / "out"
    args = ["predict", str(field_path), "--start", "1,1", "--dt", value, "--out", str(out)]
    assert main(args) == 2
    assert f"error: dt must be a finite number, got {value}" in capsys.readouterr().err
    assert not (out / "trajectories.csv").exists()


def test_extract_covers_the_world_when_the_cell_size_does_not_divide_it(tmp_path, capsys):
    # 20 m / 0.35 m is 57.1 cells: the grid takes 58, so walkers at the far
    # edges still land in it.
    tracks = tmp_path / "tracks.csv"
    tracks.write_text("# t,id,x,y,vx,vy\n0.0,1,19.98,5.0,0.5,0.0\n0.0,2,5.0,19.97,0.0,0.5\n")
    out = tmp_path / "out"
    assert main(["extract", str(tracks), "--cell-size", "0.35", "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "manifest.json").read_text())["stats"]["dropped_observations"] == 0
    field = read_field(str(out / "field.txt"))
    assert field.spec.width == field.spec.height == 58


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_extract_with_a_huge_xi_writes_finite_force_stats(tmp_path, capsys):
    # The largest force component is about 1.1e308: its square overflows,
    # its magnitude does not.
    from fipp.io import write_track_log
    from fipp.sim import generate_scenario, simulate_tracks

    tracks = tmp_path / "t.csv"
    write_track_log(str(tracks), simulate_tracks(generate_scenario("intersection", 20, 1), 3.0))
    out = tmp_path / "out"
    assert main(["extract", str(tracks), "--xi", "1e308", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    stats = _strict_json((out / "manifest.json").read_text())["stats"]
    assert 1e154 < stats["force_max"] < np.inf
    assert np.isfinite(read_field(str(out / "field.txt")).force).all()


def test_extract_force_stats_are_those_of_the_published_magnitudes(tmp_path, capsys):
    # np.linalg.norm rounds this log's largest magnitude 2.2e-16 below the
    # math.hypot one the field export holds.
    from fipp.io import write_track_log
    from fipp.sim import generate_scenario, simulate_tracks

    tracks = tmp_path / "t.csv"
    write_track_log(str(tracks), simulate_tracks(generate_scenario("intersection", 50, 1), 30.0))
    out = tmp_path / "out"
    assert main(["extract", str(tracks), "--cell-size", "0.5", "--out", str(out)]) == 0
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    mag = np.loadtxt(out / "field.txt", delimiter=",", comments="#", usecols=6)
    assert stats["force_max"] == mag.max()
    assert stats["force_p90"] == np.percentile(mag, 90)


def test_extract_computes_the_force_magnitudes_once(tmp_path, monkeypatch):
    import fipp.cli
    import fipp.io
    from fipp.flowfield import force_magnitude

    calls = []

    def counted(force):
        calls.append(force.shape)
        return force_magnitude(force)

    monkeypatch.setattr(fipp.io, "force_magnitude", counted)
    monkeypatch.setattr(fipp.cli, "force_magnitude", counted, raising=False)
    tracks = tmp_path / "tracks.csv"
    _laminar_log(tracks)
    assert main(["extract", str(tracks), "--out", str(tmp_path / "out")]) == 0
    assert calls == [(40, 40, 2)]


def test_extract_with_a_force_magnitude_that_overflows_names_xi(tmp_path, capsys, monkeypatch):
    update_field = FlowField.update_field

    def huge(self, params):
        update_field(self, params)
        self.force[3, 2] = (1.5e308, 1.5e308)

    monkeypatch.setattr(FlowField, "update_field", huge)
    tracks = tmp_path / "tracks.csv"
    _laminar_log(tracks)
    out = tmp_path / "out"
    assert main(["extract", str(tracks), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: xi: the force magnitude at cell (2, 3) overflows with --xi 0.5\n"
    )
    assert not out.exists()


def test_extract_rejects_an_id_outside_int64_naming_the_line(tmp_path, capsys):
    tracks = tmp_path / "tracks.csv"
    tracks.write_text("# t,id,x,y,vx,vy\n0.0,9223372036854775808,1.0,1.0,0.0,0.0\n")
    out = tmp_path / "out"
    assert main(["extract", str(tracks), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tracks}:2: '9223372036854775808' is not a number")
    assert not (out / "field.txt").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("extract {missing} --h 0", "influence radius h must be positive"),
        ("extract {missing} --cell-size 0", "cell_size must be positive"),
        ("predict {missing} --start 1,1 --dt -1", "dt must be positive"),
        ("predict {missing} --start 1,1 --steps -1", "steps must be nonnegative"),
        ("predict {missing}", "predict needs --start points or --truth"),
        ("predict {missing} --start 1", "expected X,Y, got '1'"),
        ("predict {missing} --start 1,1 --truth {missing}",
         "predict takes --start points or --truth, not both"),
        ("plan {missing} --start 1,1 --goal 5,5 --lambda -1", "lambda_flow must be nonnegative"),
        ("plan {missing} --start 1,1 --goal x,5", "non-numeric point 'x,5'"),
        ("predict {missing} --start nan,1", "non-finite point 'nan,1'"),
        ("predict {missing} --start 1,inf", "non-finite point '1,inf'"),
        ("plan {missing} --start nan,1 --goal 5,5", "non-finite point 'nan,1'"),
        ("plan {missing} --start 1,1 --goal inf,5", "non-finite point 'inf,5'"),
        ("simulate --peds 0", "peds must be at least 1, got 0"),
        ("simulate --h 0", "influence radius h must be positive"),
        ("simulate --cell-size -1", "cell_size must be positive"),
        ("simulate --seed -1", "seed must be nonnegative, got -1"),
    ],
    ids=[
        "extract-h", "extract-cell-size", "predict-dt", "predict-steps", "predict-no-start",
        "predict-start", "predict-start-and-truth", "plan-lambda", "plan-goal",
        "predict-nan", "predict-inf", "plan-nan", "plan-inf", "simulate-peds",
        "simulate-h", "simulate-cell-size", "simulate-seed",
    ],
)
def test_flags_are_checked_before_any_input_is_read_or_output_made(
    tmp_path, capsys, argv, message
):
    # The input file does not exist, so a command that read it first would
    # fail on that instead.
    out = tmp_path / "out"
    args = argv.format(missing=tmp_path / "missing.txt").split() + ["--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("scenario", "whirlpool", "scenario: unknown scenario kind 'whirlpool'"),
        ("planner", "astar", "planner must be one of ('fipp', 'tr'), got 'astar'"),
        ("dt", 0.0, "dt must be positive"),
        ("seed", -1, "seed must be nonnegative, got -1"),
    ],
)
def test_config_values_are_checked_before_the_output_is_made(
    tmp_path, capsys, key, value, message
):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_extract_missing_file(tmp_path, capsys):
    rc = main(["extract", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        "extract {dir}",
        "plan {dir} --start 1,1 --goal 5,5",
        "predict {dir} --start 1,1",
        "predict {field} --truth {dir}",
    ],
    ids=["extract", "plan", "predict", "predict-truth"],
)
def test_a_directory_given_as_an_input_file_is_an_input_error_naming_it(
    tmp_path, capsys, argv
):
    somedir = tmp_path / "somedir"
    somedir.mkdir()
    field = tmp_path / "field.txt"
    _uniform_field(field)
    out = tmp_path / "out"
    args = argv.format(dir=somedir, field=field).split() + ["--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {somedir}: Is a directory\n"
    assert not out.exists()


def test_an_out_that_names_an_existing_file_is_an_input_error_naming_it(tmp_path, capsys):
    tracks = tmp_path / "tracks.csv"
    _laminar_log(tracks)
    before = tracks.read_bytes()
    assert main(["extract", str(tracks), "--out", str(tracks)]) == 2
    assert capsys.readouterr().err == f"error: {tracks}: File exists\n"
    assert tracks.read_bytes() == before


@pytest.mark.parametrize(
    "name,reason",
    [("nodir/t.csv", "No such file or directory"), ("somedir", "Is a directory")],
)
def test_simulate_checks_its_tracks_out_path_before_the_output_is_made(
    tmp_path, capsys, name, reason
):
    (tmp_path / "somedir").mkdir()
    tracks_out = tmp_path / name
    out = tmp_path / "out"
    rc = main(["simulate", "--peds", "4", "--scenario", "chaotic", "--out", str(out),
               "--tracks-out", str(tracks_out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {tracks_out}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "name",
    ["episode.jsonl", "manifest.json", "scenario.json", "metrics.json", "metrics.json/t.csv", ""],
)
def test_simulate_refuses_a_tracks_out_at_its_own_output_before_the_episode_runs(
    tmp_path, capsys, monkeypatch, name
):
    # Left to run, the track log would be interleaved into the episode log,
    # replaced by another output file, or not written at all.
    import fipp.cli

    def no_episode(*args, **kwargs):
        raise AssertionError("the episode ran")

    monkeypatch.setattr(fipp.cli, "run_episode", no_episode)
    out = tmp_path / "out"
    tracks_out = str(out / name) if name else ""
    rc = main(["simulate", "--peds", "4", "--out", str(out), "--tracks-out", tracks_out])
    assert rc == 2
    own = name.split("/")[0]
    assert capsys.readouterr().err == (
        f"error: --tracks-out {tracks_out}: simulate writes its {own} there\n" if name
        else "error: --tracks-out '' names no file\n"
    )
    assert not out.exists()


def test_simulate_leaves_no_tracks_file_when_its_out_is_refused(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    tracks_out = tmp_path / "t.csv"
    rc = main(["simulate", "--peds", "4", "--out", str(out), "--tracks-out", str(tracks_out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {out}: File exists\n"
    assert not tracks_out.exists()


def _entries(out) -> list[str]:
    """Every file and directory below ``out``, as sorted relative paths."""
    return sorted(str(p.relative_to(out)) for p in out.rglob("*"))


@pytest.mark.parametrize(
    "argv, name",
    [
        ("extract {tracks}", "field.txt"),
        ("extract {tracks}", "manifest.json"),
        ("plan {field} --start 1,1 --goal 5,5", "plan.txt"),
        ("plan {field} --start 1,1 --goal 5,5", "manifest.json"),
        ("predict {field} --start 1,1", "trajectories.csv"),
        ("predict {field} --start 1,1", "manifest.json"),
        ("simulate --peds 4 --scenario chaotic", "scenario.json"),
        ("simulate --peds 4 --scenario chaotic", "manifest.json"),
        ("bench --kinds chaotic --seeds 1 --peds 4", "report.json"),
        ("bench --kinds chaotic --seeds 1 --peds 4", "report.txt"),
    ],
    ids=[
        "extract-field", "extract-manifest", "plan", "plan-manifest", "predict",
        "predict-manifest", "simulate", "simulate-manifest", "bench", "bench-report-txt",
    ],
)
def test_an_output_file_that_is_a_directory_is_an_input_error_naming_it(
    tmp_path, capsys, argv, name
):
    # The command's first file or its last: either way no file of the
    # command lands in --out, and no stage is left there.
    tracks, field = tmp_path / "tracks.csv", tmp_path / "field.txt"
    _laminar_log(tracks)
    _uniform_field(field)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    args = argv.format(tracks=tracks, field=field).split() + ["--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {out / name}: Is a directory\n"
    assert _entries(out) == [name]


def test_extract_leaves_no_field_when_its_manifest_cannot_be_written(tmp_path, capsys):
    tracks = tmp_path / "tracks.csv"
    _laminar_log(tracks)
    out = tmp_path / "o"
    (out / "manifest.json").mkdir(parents=True)
    assert main(["extract", str(tracks), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out / 'manifest.json'}: Is a directory\n"
    assert not (out / "field.txt").exists()


def _poison_step(monkeypatch):
    """Make every episode's third step carry a NaN robot velocity, which
    the episode-log writer refuses."""
    import fipp.cli

    run_episode = fipp.cli.run_episode

    def poisoned(scenario, planner, **kwargs):
        log = run_episode(scenario, planner, **kwargs)
        log.records[2] = dataclasses.replace(log.records[2], robot_vx=float("nan"))
        return log

    monkeypatch.setattr(fipp.cli, "run_episode", poisoned)


@pytest.mark.parametrize(
    "argv, rc",
    [
        ("extract {tracks} --h 1 --out {out}", 0),
        ("extract {field} --out {out}", 2),
        ("plan {field} --start 1,1 --goal 5,5 --out {out}", 0),
        ("plan {field} --start 100,100 --goal 5,5 --out {out}", 2),
        ("predict {field} --start 1,1 --out {out}", 0),
        ("predict {field} --truth {field} --out {out}", 2),
        ("simulate --peds 4 --planner tr --out {out} --tracks-out {out}/t.csv", 0),
        ("simulate --peds 4 --planner tr --out {out} --tracks-out {tmp}/t.csv", 0),
        ("simulate --peds 4 --out {out} --tracks-out {tmp}/t.csv", 2),
        ("bench --kinds chaotic --seeds 1 --peds 4 --out {out}", 0),
        ("bench --kinds chaotic --seeds 1 --peds 4 --out {out}", 2),
    ],
    ids=[
        "extract", "extract-fails", "plan", "plan-fails", "predict", "predict-fails",
        "simulate-tracks-inside", "simulate-tracks-beside", "simulate-fails", "bench",
        "bench-fails",
    ],
)
def test_no_stage_is_left_after_a_command(tmp_path, capsys, monkeypatch, argv, rc):
    tracks, field = tmp_path / "tracks.csv", tmp_path / "field.txt"
    _laminar_log(tracks)
    _uniform_field(field)
    if rc:
        _poison_step(monkeypatch)
    out = tmp_path / "out"
    assert main(argv.format(tracks=tracks, field=field, out=out, tmp=tmp_path).split()) == rc
    capsys.readouterr()
    assert not list(tmp_path.rglob(".fipp-stage-*"))
    if rc and argv.startswith("bench"):
        # bench returns its exit 2, with a report of the failures: published.
        assert _entries(out) == ["episodes", "manifest.json", "report.json"]
    elif rc:
        assert not out.exists() and not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "argv, rc",
    [
        ("extract {field}", 2),
        ("plan {field} --start 1,1 --goal 5,5", 3),
        ("predict {field} --truth {field}", 2),
        ("simulate --peds 4 --scenario chaotic --tracks-out {out}/tracks.txt", 2),
        ("bench --kinds chaotic --seeds 2 --peds 4", 4),
    ],
    ids=["extract", "plan", "predict", "simulate", "bench"],
)
def test_a_failed_command_leaves_a_populated_out_as_it_was(
    tmp_path, capsys, monkeypatch, argv, rc
):
    # --out holds an earlier simulate run, a bench run's files and a file of
    # the user's own; the failed command changes none of their bytes and
    # adds nothing. bench fails after its episodes ran, in the comparison.
    field = tmp_path / "field.txt"
    _uniform_field(field)
    out = tmp_path / "out"
    common = ["--peds", "4", "--out", str(out)]
    assert main(["simulate", "--scenario", "chaotic", "--tracks-out", str(out / "tracks.txt"),
                 *common]) == 0
    assert main(["bench", "--kinds", "chaotic", "--seeds", "1", *common]) == 0
    (out / "notes.txt").write_text("mine\n")
    entries = _entries(out)
    before = {name: (out / name).read_bytes() for name in entries if (out / name).is_file()}
    capsys.readouterr()

    def broken(*args):
        raise RuntimeError("comparison broke")

    monkeypatch.setattr("fipp.cli.plan", _no_path)
    monkeypatch.setattr("fipp.cli.compare", broken)
    if argv.startswith("simulate"):
        _poison_step(monkeypatch)
    assert main(argv.format(field=field, out=out).split() + ["--out", str(out)]) == rc
    assert "error: " in capsys.readouterr().err
    assert _entries(out) == entries
    assert {name: (out / name).read_bytes() for name in before} == before


def test_a_failed_command_removes_the_directories_it_made_for_its_out(tmp_path, capsys):
    (tmp_path / "keep").mkdir()
    out = tmp_path / "keep" / "a" / "b" / "c"
    field = tmp_path / "field.txt"
    _uniform_field(field)
    argv = ["plan", str(field), "--start", "100,100", "--goal", "5,5", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: start and goal must lie inside the grid\n"
    assert _entries(tmp_path) == ["field.txt", "keep"]


def test_an_out_below_a_file_is_an_input_error_naming_the_file_as_a_directory(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    field = tmp_path / "field.txt"
    _uniform_field(field)
    argv = ["plan", str(field), "--start", "1,1", "--goal", "5,5",
            "--out", str(afile / "b" / "c")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {afile / 'b'}: Not a directory\n"
    assert _entries(tmp_path) == ["afile", "field.txt"]


def test_a_symlinked_out_receives_the_files(tmp_path, capsys):
    real = tmp_path / "real"
    real.mkdir()
    link = tmp_path / "link"
    link.symlink_to(real, target_is_directory=True)
    argv = ["simulate", "--peds", "4", "--planner", "tr", "--out", str(link),
            "--tracks-out", str(link / "tracks.txt")]
    assert main(argv) == 0
    assert link.is_symlink()
    assert _entries(real) == [
        "episode.jsonl", "manifest.json", "metrics.json", "scenario.json", "tracks.txt"
    ]
    steps = _episode_lines(real / "episode.jsonl")[1:-1]
    assert read_track_log(str(real / "tracks.txt")).t.size == len(steps)


def test_an_os_error_naming_no_file_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def failing_plan(*args, **kwargs):
        raise OSError("device lost")

    monkeypatch.setattr("fipp.cli.plan", failing_plan)
    field = tmp_path / "field.txt"
    _uniform_field(field)
    argv = ["plan", str(field), "--start", "1,1", "--goal", "5,5", "--out", str(tmp_path / "out")]
    assert main(argv) == 4
    assert capsys.readouterr().err == "internal error: OSError: device lost\n"


def test_manifest_lists_settings_under_config_and_the_rest_under_inputs(tmp_path, capsys):
    # No key sits under both, and the config part reads back as a config
    # file to the same configuration.
    tracks, field = tmp_path / "tracks.csv", tmp_path / "field.txt"
    _laminar_log(tracks)
    _uniform_field(field)
    runs = {
        "extract": ["extract", str(tracks)],
        "predict": ["predict", str(field), "--start", "1,1"],
        "plan": ["plan", str(field), "--start", "1,1", "--goal", "5,5", "--lambda", "1.5"],
        "simulate": ["simulate", "--scenario", "chaotic", "--peds", "4",
                     "--tracks-out", str(tmp_path / "sim.csv")],
        "bench": ["bench", "--kinds", "chaotic", "--seeds", "1", "--peds", "4"],
    }
    for command, argv in runs.items():
        out = tmp_path / command
        assert main([*argv, "--out", str(out)]) == 0, command
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest["config"]) == set(DEFAULTS)
        assert not set(manifest["config"]) & set(manifest["inputs"]), command
        cfg_file = out / "config.json"
        cfg_file.write_text(json.dumps(manifest["config"]))
        again = resolve_config(build_parser().parse_args([*argv, "--config", str(cfg_file)]))
        assert again == manifest["config"], command
    capsys.readouterr()
    assert json.loads((tmp_path / "simulate" / "manifest.json").read_text())["inputs"] == {
        "tracks_out": str(tmp_path / "sim.csv")
    }


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_recovers_the_walkers(tmp_path, capsys):
    tracks = tmp_path / "tracks.csv"
    _laminar_log(tracks)
    field_out = tmp_path / "field_out"
    main(["extract", str(tracks), "--out", str(field_out)])

    pred_out = tmp_path / "pred_out"
    rc = main([
        "predict", str(field_out / "field.txt"),
        "--truth", str(tracks), "--out", str(pred_out),
    ])
    assert rc == 0
    assert "mean trajectory deviation" in capsys.readouterr().out
    dev = json.loads((pred_out / "deviation.json").read_text())
    assert len(dev["per_pedestrian"]) == 12
    assert dev["mean"] < 0.01


def test_predict_advects_start_points(tmp_path):
    field_path = tmp_path / "field.txt"
    _uniform_field(field_path)  # constant force 0.5 -> 1.0 m/s drift in +x
    out = tmp_path / "out"
    rc = main([
        "predict", str(field_path),
        "--start", "2,2", "--start", "3.5,17.2",
        "--dt", "0.1", "--steps", "5", "--out", str(out),
    ])
    assert rc == 0
    rows = (out / "trajectories.csv").read_text().splitlines()[1:]
    assert len(rows) == 12  # two trajectories, six points each
    first = [r.split(",") for r in rows if r.startswith("0,")]
    xs = [float(r[2]) for r in first]
    ys = [float(r[3]) for r in first]
    assert xs == pytest.approx([2.0 + 0.1 * k for k in range(6)])
    assert ys == [2.0] * 6


@pytest.mark.parametrize("offset", [0, 1])
def test_predict_truth_with_a_bad_row_at_a_block_edge_names_its_line(
    tmp_path, capsys, monkeypatch, offset
):
    import fipp.io

    field = tmp_path / "field.txt"
    _uniform_field(field)
    truth = tmp_path / "truth.csv"
    _laminar_log(truth)
    lines = truth.read_text().split("\n")
    lines[40] = lines[40].replace(",", ",1_", 1)
    text = "\n".join(lines)
    truth.write_text(text)
    # The reader's first block ends just before the bad row, or just
    # after its first character.
    monkeypatch.setattr(fipp.io, "_BLOCK_CHARS", text.index(lines[40]) + offset)
    out = tmp_path / "out"
    assert main(["predict", str(field), "--truth", str(truth), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {truth}:41: ") and "is not a number" in err
    assert not out.exists()


def test_predict_stops_at_a_position_that_overflows(tmp_path, capsys):
    # Off the grid a particle keeps its edge cell's force, so it runs on
    # until its position overflows.
    field = FlowField(GridSpec(Vec2(0.0, 0.0), 1.0, 4, 4))
    field.force[...] = 1e308
    from fipp.io import write_field

    write_field(str(tmp_path / "big.txt"), field)
    out = tmp_path / "out"
    argv = ["predict", str(tmp_path / "big.txt"), "--start", "0.5,0.5", "--steps", "20"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: advection from (0.5, 0.5) with dt 0.1: the position is not finite at step 9\n"
    )
    assert not out.exists()


def test_predict_truth_with_a_deviation_that_overflows_names_the_pedestrian(tmp_path, capsys):
    # The predicted positions stay finite, about 1e308, but their arc
    # lengths overflow.
    from fipp.io import write_track_log
    from fipp.sim import generate_scenario, simulate_tracks

    tracks = tmp_path / "t.csv"
    write_track_log(str(tracks), simulate_tracks(generate_scenario("intersection", 20, 1), 3.0))
    assert main(["extract", str(tracks), "--xi", "1e308", "--out", str(tmp_path / "x")]) == 0
    field = tmp_path / "x" / "field.txt"
    out = tmp_path / "out"
    assert main(["predict", str(field), "--truth", str(tracks), "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        f"error: pedestrian 0 of {tracks}: its deviation from the track predicted on "
        f"{field} with dt 0.1 is not finite\n"
    )
    assert not out.exists()


def _finite_outputs(out) -> None:
    """Every number in every file under ``out`` is finite: the JSON files
    parse with no NaN or Infinity constant and hold no number that
    overflows to inf, and no other file holds a nan or inf token."""
    for path in sorted(out.rglob("*")):
        text = path.read_text()
        if path.suffix == ".json":
            stack = [_strict_json(text)]
            while stack:
                value = stack.pop()
                if isinstance(value, dict):
                    stack.extend(value.values())
                elif isinstance(value, list):
                    stack.extend(value)
                elif isinstance(value, float):
                    assert math.isfinite(value), (path, value)
        else:
            assert not re.search(r"nan|inf", text, re.IGNORECASE), path


# A setting drawn up to 1e308: sizes across the whole float range, the
# values at its ends, and a few below 0.
_SETTING = st.floats(0.0, 1e308) | st.sampled_from(
    [0.0, 5e-324, 1e-308, 1e-3, 1e154, 1e300, 1e308, -1.0, -1e308]
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    xi=_SETTING, h=_SETTING, lam=_SETTING, dt=_SETTING,
    # steps is a count of points, each one computed and written, so an
    # integer run of steps is drawn up to 300; written as a float it is
    # drawn up to 1e308, which the integer flag rejects.
    steps=st.integers(-1, 300).map(str) | _SETTING.map(repr),
)
def test_every_command_writes_only_finite_numbers_or_names_a_setting(xi, h, lam, dt, steps):
    from fipp.io import write_track_log
    from fipp.sim import generate_scenario, simulate_tracks

    def check(argv, names, out) -> bool:
        """Run one command: it exits 0 with only finite numbers in its
        outputs, or exits 2 naming one of its settings and writing nothing."""
        errors = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
            try:
                rc = main(argv + ["--out", str(out)])
            except SystemExit as exc:  # argparse rejects a flag's value
                rc = exc.code
        if rc == 0:
            _finite_outputs(out)
            return True
        err = errors.getvalue()
        assert rc == 2, (argv, err)
        assert any(re.search(rf"\b{name}\b", err) for name in names), (argv, err)
        assert not out.exists()
        return False

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        tracks = str(tmp / "t.csv")
        write_track_log(tracks, simulate_tracks(generate_scenario("intersection", 4, 1), 0.3))
        field = tmp / "field"
        if not check(["extract", tracks, f"--xi={xi!r}", f"--h={h!r}"], ("xi", "h"), field):
            field = tmp / "default"  # the later commands read a field all the same
            assert main(["extract", tracks, "--out", str(field)]) == 0
        export = str(field / "field.txt")
        check(["plan", export, "--start", "1,1", "--goal", "19,19", f"--lambda={lam!r}"],
              ("lambda", "lambda_flow"), tmp / "plan")
        check(["predict", export, "--start", "1,19", f"--dt={dt!r}", f"--steps={steps}"],
              ("dt", "steps"), tmp / "predict")
        check(["predict", export, "--truth", tracks, f"--dt={dt!r}"], ("dt",), tmp / "truth")


def test_predict_needs_starts_or_truth(tmp_path, capsys):
    field_path = tmp_path / "field.txt"
    _uniform_field(field_path)
    rc = main(["predict", str(field_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "needs --start points or --truth" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def test_plan_writes_result_and_summary(tmp_path, capsys):
    field_path = tmp_path / "field.txt"
    _uniform_field(field_path)
    out = tmp_path / "out"
    rc = main([
        "plan", str(field_path),
        "--start", "1,1", "--goal", "9,9", "--out", str(out),
    ])
    assert rc == 0
    assert "C_phi=" in capsys.readouterr().out
    lines = (out / "plan.txt").read_text().splitlines()
    assert lines[-1].startswith("# total C_T=")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stats"]["cells"] == len(lines) - 2


def test_plan_off_grid_endpoint_is_an_input_error(tmp_path, capsys):
    field_path = tmp_path / "field.txt"
    _uniform_field(field_path)
    rc = main([
        "plan", str(field_path),
        "--start=-5,1", "--goal", "9,9", "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_plan_on_a_field_with_a_nan_force_is_an_input_error(tmp_path, capsys):
    field_path = tmp_path / "field.txt"
    _uniform_field(field_path)
    rows = field_path.read_text().splitlines()
    # Cell (30, 30) sits far off the straight route from (1, 1) to (9, 9).
    row = next(k for k, r in enumerate(rows) if r.startswith("30,30,"))
    parts = rows[row].split(",")
    parts[4] = "nan"
    rows[row] = ",".join(parts)
    field_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    rc = main([
        "plan", str(field_path),
        "--start", "1,1", "--goal", "9,9", "--out", str(out),
    ])
    assert rc == 2
    # The field reader rejects the row before the planner sees the field.
    assert f"field.txt:{row + 1}: non-finite force" in capsys.readouterr().err
    assert not (out / "plan.txt").exists()


def test_plan_on_an_export_with_nan_magnitudes_plans_as_the_clean_export(tmp_path, capsys):
    # The reader leaves an export's cx, cy and mag columns unparsed: the
    # planner takes |f| from fx and fy, so a nan in mag changes nothing.
    clean = tmp_path / "clean.txt"
    _uniform_field(clean, fx=0.3, fy=-0.4)
    lines = clean.read_text().splitlines()
    poisoned = tmp_path / "nan_mag.txt"
    poisoned.write_text(
        "\n".join(lines[:2] + [row.rsplit(",", 1)[0] + ",nan" for row in lines[2:]]) + "\n"
    )
    results = []
    for path in (clean, poisoned):
        out = tmp_path / path.stem
        argv = ["plan", str(path), "--start", "1,1", "--goal", "9,15", "--out", str(out)]
        assert main(argv) == 0
        results.append((capsys.readouterr(), (out / "plan.txt").read_bytes()))
    assert results[0] == results[1]


def test_plan_on_a_field_with_a_repeated_and_a_missing_cell_is_an_input_error(tmp_path, capsys):
    # A 2x1 field listing cell (0,0) twice and leaving out (1,0).
    field_path = tmp_path / "field.txt"
    field_path.write_text(
        "# grid 0.0 0.0 0.5 2 1\n# i,j,cx,cy,fx,fy,mag\n"
        "0,0,0.25,0.25,0.0,0.0,0.0\n0,0,0.25,0.25,0.0,0.0,0.0\n"
    )
    out = tmp_path / "out"
    argv = ["plan", str(field_path), "--start", "0.2,0.2", "--goal", "0.8,0.2", "--out", str(out)]
    assert main(argv) == 2
    assert "field.txt:4: cell (0,0) listed twice" in capsys.readouterr().err
    assert not (out / "plan.txt").exists()


def _no_path(*args, **kwargs):
    from fipp.planner import NoPathError

    raise NoPathError("no path from cell (2, 2) to cell (18, 18)")


@pytest.mark.parametrize(
    "case, rc, message",
    [
        ("off_grid", 2, "start and goal must lie inside the grid"),
        ("huge_force", 2, "gives a non-finite edge cost"),
        ("no_path", 3, "no path from cell"),
    ],
)
def test_plan_that_fails_creates_no_out(tmp_path, capsys, monkeypatch, case, rc, message):
    field_path = tmp_path / "field.txt"
    _uniform_field(field_path, *((1e308, -1e308) if case == "huge_force" else (0.5, 0.0)))
    if case == "no_path":
        monkeypatch.setattr("fipp.cli.plan", _no_path)
    start = "100,100" if case == "off_grid" else "1,1"
    out = tmp_path / "out"
    argv = ["plan", str(field_path), "--start", start, "--goal", "9,9", "--out", str(out)]
    assert main(argv) == rc
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_plan_with_an_overflowing_lambda_names_it(tmp_path, capsys):
    # Every force is 5 m/s^2, finite; 1e308 times it is not.
    field_path = tmp_path / "field.txt"
    _uniform_field(field_path, 5.0, 0.0)
    out = tmp_path / "out"
    argv = ["plan", str(field_path), "--start", "1,1", "--goal", "9,9", "--lambda", "1e308",
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: lambda_flow 1e+308 times the force magnitude 5.0 at cell (0, 0) "
        "gives a non-finite edge cost\n"
    )
    assert not out.exists()


def test_plan_malformed_point(tmp_path, capsys):
    field_path = tmp_path / "field.txt"
    _uniform_field(field_path)
    rc = main([
        "plan", str(field_path),
        "--start", "1;1", "--goal", "9,9", "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "expected X,Y" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    tracks_out = tmp_path / "tracks.csv"
    rc = main([
        "simulate", "--scenario", "chaotic", "--peds", "6", "--seed", "3",
        "--out", str(out), "--tracks-out", str(tracks_out),
    ])
    assert rc == 0
    assert "chaotic seed=3 planner=fipp" in capsys.readouterr().out

    scenario = json.loads((out / "scenario.json").read_text())
    assert scenario["kind"] == "chaotic" and scenario["n_peds"] == 6
    meta, *steps, outcome = _episode_lines(out / "episode.jsonl")
    assert meta["planner"] == "fipp"
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["outcome"] == outcome["outcome"]
    assert metrics["seed"] == 3
    # The track log holds, bit for bit, the crowd the episode log records at
    # each step (a step without pedestrians writes no track-log row).
    crowds = [step for step in steps if step["peds"]]
    want = TrackLog.concat(one_frame(crowd["t"], crowd["peds"]) for crowd in crowds)
    read = read_track_log(str(tracks_out))
    assert read.t.size == len(crowds) > 0
    assert columns(read) == columns(want)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["planner"] == "fipp"
    assert manifest["stats"]["steps"] == len(steps) - 1


@pytest.mark.parametrize("planner", ["fipp", "tr"])
def test_simulate_tracks_out_reads_back_as_the_episodes_observations_joined(
    tmp_path, capsys, monkeypatch, planner
):
    # Every step's crowd is a one-frame log; joined in step order, they are
    # what the --tracks-out file reads back as, column by column and bit
    # for bit.
    from fipp import sim

    observed, observations = [], sim.observations

    def observe(crowd, t):
        observed.append(observations(crowd, t))
        return observed[-1]

    monkeypatch.setattr(sim, "observations", observe)
    tracks_out = tmp_path / "tracks.csv"
    rc = main([
        "simulate", "--scenario", "double_flow", "--peds", "8", "--seed", "2",
        "--planner", planner, "--out", str(tmp_path / "out"), "--tracks-out", str(tracks_out),
    ])
    assert rc == 0
    capsys.readouterr()
    joined, read = TrackLog.concat(observed), read_track_log(str(tracks_out))
    assert joined.t.size > 1
    assert columns(read) == columns(joined)


def _planner_fails_once(monkeypatch):
    """Make the replanner's next call raise; run_episode recovers from it."""
    from fipp.planner import Replanner

    step = Replanner.step
    calls = []

    def fail_once(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise ValueError("planner down")
        return step(self, *args, **kwargs)

    monkeypatch.setattr(Replanner, "step", fail_once)


def test_simulate_prints_the_planner_error_it_recovered_from(tmp_path, capsys, monkeypatch):
    _planner_fails_once(monkeypatch)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", "chaotic", "--peds", "4", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "recovered planner error: ValueError: planner down\n"
    assert "chaotic seed=0 planner=fipp" in captured.out
    assert sorted(p.name for p in out.iterdir()) == [
        "episode.jsonl", "manifest.json", "metrics.json", "scenario.json"
    ]


def test_simulate_with_a_non_finite_step_leaves_no_file(tmp_path, capsys, monkeypatch):
    import fipp.cli

    run_episode = fipp.cli.run_episode

    def poisoned(scenario, planner, **kwargs):
        log = run_episode(scenario, planner, **kwargs)
        log.records[2] = dataclasses.replace(log.records[2], robot_vx=float("nan"))
        return log

    monkeypatch.setattr(fipp.cli, "run_episode", poisoned)
    out, tracks_out = tmp_path / "out", tmp_path / "tracks.txt"
    argv = ["simulate", "--scenario", "chaotic", "--peds", "4", "--out", str(out),
            "--tracks-out", str(tracks_out)]
    assert main(argv) == 2
    assert "step 2 (t=0.2): non-finite robot state" in capsys.readouterr().err
    assert not out.exists()
    assert not tracks_out.exists()


def test_simulate_with_a_non_finite_step_leaves_no_out_holding_its_track_log(
    tmp_path, capsys, monkeypatch
):
    import fipp.cli

    run_episode = fipp.cli.run_episode

    def poisoned(scenario, planner, **kwargs):
        log = run_episode(scenario, planner, **kwargs)
        log.records[3] = dataclasses.replace(log.records[3], robot_y=float("inf"))
        return log

    monkeypatch.setattr(fipp.cli, "run_episode", poisoned)
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", "chaotic", "--peds", "4", "--out", str(out),
            "--tracks-out", str(out / "tracks.txt")]
    assert main(argv) == 2
    assert "step 3 (t=0.30000000000000004): non-finite robot state" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_writes_its_track_log_into_an_out_not_made_yet(tmp_path):
    out = tmp_path / "out"
    tracks_out = out / "tracks.txt"
    rc = main(["simulate", "--peds", "4", "--planner", "tr", "--out", str(out),
               "--tracks-out", str(tracks_out)])
    assert rc == 0
    steps = _episode_lines(out / "episode.jsonl")[1:-1]
    assert read_track_log(str(tracks_out)).t.size == len(steps)


def test_simulate_respects_planner_flag(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "simulate", "--scenario", "chaotic", "--peds", "4", "--seed", "1",
        "--planner", "tr", "--out", str(out),
    ])
    assert rc == 0
    assert json.loads((out / "metrics.json").read_text())["planner"] == "tr"


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["simulate", "--threshold", "nan"], None, "threshold must be a finite number, got nan"),
        (["simulate"], '{"threshold": NaN}', "threshold must be a finite number, got nan"),
        (["bench", "--threshold", "0"], None, "threshold must be positive"),
    ],
    ids=["flag-nan", "config-nan", "bench-zero"],
)
def test_threshold_that_is_not_a_positive_distance_is_an_input_error(
    tmp_path, capsys, argv, config, message
):
    # Rejected before any episode runs: nothing is written.
    out = tmp_path / "out"
    argv = [*argv, "--out", str(out)]
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(config)
        argv += ["--config", str(cfg_file)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [0, -2])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bench_job_count_below_one_is_an_input_error(tmp_path, capsys, source, value):
    # Rejected before any episode runs: nothing is written.
    out = tmp_path / "out"
    argv = ["bench", "--kinds", "chaotic", "--seeds", "1", "--peds", "4", "--out", str(out)]
    if source == "flag":
        argv += ["--jobs", str(value)]
    else:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(f'{{"jobs": {value}}}')
        argv += ["--config", str(cfg_file)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: jobs must be at least 1, got {value}\n"
    assert not out.exists()


def test_bench_with_a_negative_seed_in_its_config_is_an_input_error(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"seeds": "1,-1"}')
    out = tmp_path / "out"
    argv = ["bench", "--kinds", "chaotic", "--config", str(cfg_file), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seeds must be nonnegative, got '1,-1'\n"
    assert not out.exists()


def test_bench_small_sweep(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "bench", "--kinds", "chaotic", "--seeds", "1", "--peds", "8",
        "--out", str(out),
    ])
    assert rc == 0
    assert "winner" in capsys.readouterr().out

    report = json.loads((out / "report.json").read_text())
    assert report["planners"] == ["fipp", "tr"]
    assert report["n_episodes"] == 1
    assert "chaotic" in report["per_scenario"]
    assert report["failures"] == []
    assert (out / "report.txt").read_text().strip()
    assert (out / "episodes" / "chaotic-1-fipp.jsonl").exists()
    assert (out / "episodes" / "chaotic-1-tr.jsonl").exists()


def test_bench_keeps_its_report_when_a_planner_completes_no_episode(
    tmp_path, capsys, monkeypatch
):
    import fipp.cli

    run_episode = fipp.cli.run_episode

    def fipp_only(scenario, planner, **kwargs):
        if planner == "tr":
            raise RuntimeError("tr is down")
        return run_episode(scenario, planner, **kwargs)

    monkeypatch.setattr(fipp.cli, "run_episode", fipp_only)
    out = tmp_path / "out"
    argv = ["bench", "--kinds", "chaotic", "--seeds", "1-2", "--peds", "4", "--out", str(out)]
    assert main(argv) == 2
    report_path = out / "report.json"
    assert capsys.readouterr().err == (
        f"error: planner tr completed no episode; the failures are in {report_path}\n"
    )
    report = json.loads(report_path.read_text())
    assert sorted(report) == ["episodes", "failures"]
    assert [(r["scenario_kind"], r["seed"]) for r in report["episodes"]["fipp"]] == [
        ("chaotic", 1), ("chaotic", 2)
    ]
    assert report["episodes"]["tr"] == []
    assert report["failures"] == [
        {"kind": "chaotic", "seed": seed, "planner": "tr", "error": "RuntimeError: tr is down"}
        for seed in (1, 2)
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stats"] == {"episodes": 4, "failures": 2}
    assert not (out / "report.txt").exists()


def test_bench_compares_only_the_seeds_both_planners_completed(tmp_path, capsys, monkeypatch):
    import fipp.cli

    run_episode = fipp.cli.run_episode

    def tr_fails_seed_2(scenario, planner, **kwargs):
        if planner == "tr" and scenario.seed == 2:
            raise RuntimeError("tr is down")
        return run_episode(scenario, planner, **kwargs)

    monkeypatch.setattr(fipp.cli, "run_episode", tr_fails_seed_2)
    out = tmp_path / "out"
    argv = ["bench", "--kinds", "chaotic", "--seeds", "1-2", "--peds", "4", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["n_episodes"] == 1
    assert [r["seed"] for r in report["episodes"]["fipp"]] == [1]
    assert [r["seed"] for r in report["episodes"]["tr"]] == [1]
    assert report["failures"] == [
        {"kind": "chaotic", "seed": 2, "planner": "tr", "error": "RuntimeError: tr is down"}
    ]
    assert (out / "report.txt").exists()


def test_bench_records_a_non_finite_robot_state_as_that_episodes_error(
    tmp_path, capsys, monkeypatch
):
    import fipp.cli

    run_episode = fipp.cli.run_episode

    def poisoned_tr(scenario, planner, **kwargs):
        log = run_episode(scenario, planner, **kwargs)
        if planner == "tr":
            log.records[2] = dataclasses.replace(log.records[2], robot_x=float("nan"))
        return log

    monkeypatch.setattr(fipp.cli, "run_episode", poisoned_tr)
    out = tmp_path / "out"
    argv = ["bench", "--kinds", "chaotic", "--seeds", "1", "--peds", "4", "--out", str(out)]
    assert main(argv) == 2
    capsys.readouterr()
    [failure] = json.loads((out / "report.json").read_text())["failures"]
    assert failure["planner"] == "tr"
    assert failure["error"].startswith("ValueError: step 2 (t=0.2): non-finite robot state")


def test_bench_records_a_scenario_it_cannot_make_as_that_episodes_failure(
    tmp_path, capsys, monkeypatch
):
    import fipp.cli

    generate_scenario = fipp.cli.generate_scenario

    def no_seed_2(kind, n_peds, seed):
        if seed == 2:
            raise ValueError("no scenario for seed 2")
        return generate_scenario(kind, n_peds, seed)

    monkeypatch.setattr(fipp.cli, "generate_scenario", no_seed_2)
    out = tmp_path / "out"
    argv = ["bench", "--kinds", "chaotic", "--seeds", "1-2", "--peds", "4", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["failures"] == [
        {"kind": "chaotic", "seed": 2, "planner": planner,
         "error": "ValueError: no scenario for seed 2"}
        for planner in ("fipp", "tr")
    ]
    assert [r["seed"] for r in report["episodes"]["tr"]] == [1]


def test_bench_records_a_planner_error_it_recovered_from(tmp_path, capsys, monkeypatch):
    _planner_fails_once(monkeypatch)
    out = tmp_path / "out"
    argv = ["bench", "--kinds", "chaotic", "--seeds", "1", "--peds", "4", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["failures"] == [
        {"kind": "chaotic", "seed": 1, "planner": "fipp", "error": "ValueError: planner down",
         "recovered": True}
    ]
    assert [r["seed"] for r in report["episodes"]["fipp"]] == [1]


def test_bench_parallel_matches_serial(tmp_path):
    # The serial run makes its --out, its own stage; the parallel one finds
    # its --out made, so its worker processes write the episode logs into a
    # hidden stage. The same files are published, byte for byte, and only
    # the manifest's config (jobs and out) tells the runs apart.
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    parallel.mkdir()
    args = ["bench", "--kinds", "chaotic", "--seeds", "1", "--peds", "8"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--jobs", "2"]) == 0
    names = _entries(serial)
    assert names == _entries(parallel) == [
        "episodes", "episodes/chaotic-1-fipp.jsonl", "episodes/chaotic-1-tr.jsonl",
        "manifest.json", "report.json", "report.txt",
    ]
    for name in names:
        if (serial / name).is_file() and name != "manifest.json":
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name
    manifests = [json.loads((out / "manifest.json").read_text()) for out in (serial, parallel)]
    for manifest in manifests:
        del manifest["config"]["jobs"], manifest["config"]["out"]
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--kinds whirlpool", "kinds: unknown scenario kind 'whirlpool'"),
        ("--kinds ,", "kinds must name at least one scenario kind"),
        ("--seeds x", "seeds must be N, A-B or a comma-separated list of integers, got 'x'"),
        ("--seeds 1,,2", "seeds must be N, A-B or a comma-separated list of integers, got '1,,2'"),
        ("--seeds 0", "seeds must name at least one seed, got '0'"),
        ("--seeds 1,-1", "seeds must be nonnegative, got '1,-1'"),
        ("--seeds=-2-1", "seeds must be nonnegative, got '-2-1'"),
        ("--peds 0", "peds must be at least 1, got 0"),
        ("--lambda -1", "lambda_flow must be nonnegative"),
        ("--xi -1", "xi must be nonnegative"),
        ("--h 0", "influence radius h must be positive"),
        ("--cell-size 0", "cell_size must be positive"),
    ],
    ids=[
        "whirlpool", "no-kind", "seeds-x", "seeds-gap", "no-seed", "seeds-negative",
        "seeds-negative-range",
        "peds", "lambda", "xi", "h", "cell-size",
    ],
)
def test_bench_rejects_unknown_kind(tmp_path, capsys, flags, message):
    # Every input is checked before any episode runs: nothing is written.
    out = tmp_path / "o"
    argv = ["bench", "--kinds", "chaotic", "--seeds", "1", "--peds", "4", "--out", str(out)]
    assert main(argv + flags.split()) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def test_module_entry_point_prints_usage():
    proc = subprocess.run(
        [sys.executable, "-m", "fipp.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    for command in ("extract", "predict", "plan", "simulate", "bench"):
        assert command in proc.stdout


def test_importing_the_cli_loads_no_process_pool():
    # Only bench --jobs above 1 fans out, so only it imports the pool.
    code = (
        "import sys, fipp.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

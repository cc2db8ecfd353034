"""Command-line tests: config resolution, seed parsing, each subcommand
end to end on small fixtures, and the exit-code contract."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from fipp import FlowField, GridSpec, Vec2
from fipp.cli import DEFAULTS, build_parser, main, parse_seeds, resolve_config
from fipp.io import read_episode_jsonl, read_field, read_json, read_track_log
from fipp.flowfield import FlowParams


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

    manifest = read_json(str(out / "manifest.json"))
    assert manifest["command"] == "extract"
    assert manifest["stats"]["frames"] == 300
    assert manifest["stats"]["dropped_observations"] == 0


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
    assert read_json(str(out / "manifest.json"))["stats"]["dropped_observations"] == 0
    field = read_field(str(out / "field.txt"))
    assert field.spec.width == field.spec.height == 58


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
        ("plan {missing} --start 1,1 --goal 5,5 --lambda -1", "lambda_flow must be nonnegative"),
        ("plan {missing} --start 1,1 --goal x,5", "non-numeric point 'x,5'"),
        ("simulate --peds 0", "peds must be at least 1, got 0"),
        ("simulate --h 0", "influence radius h must be positive"),
        ("simulate --cell-size -1", "cell_size must be positive"),
    ],
    ids=[
        "extract-h", "extract-cell-size", "predict-dt", "predict-steps", "predict-no-start",
        "predict-start", "plan-lambda", "plan-goal", "simulate-peds", "simulate-h",
        "simulate-cell-size",
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
    dev = read_json(str(pred_out / "deviation.json"))
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
    manifest = read_json(str(out / "manifest.json"))
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

    scenario = read_json(str(out / "scenario.json"))
    assert scenario["kind"] == "chaotic" and scenario["n_peds"] == 6
    log = read_episode_jsonl(str(out / "episode.jsonl"))
    assert log.planner == "fipp"
    metrics = read_json(str(out / "metrics.json"))
    assert metrics["outcome"] == log.outcome
    assert metrics["seed"] == 3
    frames = read_track_log(str(tracks_out))
    assert len(frames) == len(log.records)
    manifest = read_json(str(out / "manifest.json"))
    assert manifest["config"]["planner"] == "fipp"
    assert manifest["stats"]["steps"] == len(log.records) - 1


def test_simulate_respects_planner_flag(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "simulate", "--scenario", "chaotic", "--peds", "4", "--seed", "1",
        "--planner", "tr", "--out", str(out),
    ])
    assert rc == 0
    assert read_json(str(out / "metrics.json"))["planner"] == "tr"


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


def test_bench_small_sweep(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "bench", "--kinds", "chaotic", "--seeds", "1", "--peds", "8",
        "--out", str(out),
    ])
    assert rc == 0
    assert "winner" in capsys.readouterr().out

    report = read_json(str(out / "report.json"))
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
    report = read_json(str(report_path))
    assert sorted(report) == ["episodes", "failures"]
    assert [(r["scenario_kind"], r["seed"]) for r in report["episodes"]["fipp"]] == [
        ("chaotic", 1), ("chaotic", 2)
    ]
    assert report["episodes"]["tr"] == []
    assert report["failures"] == [
        {"kind": "chaotic", "seed": seed, "planner": "tr", "error": "RuntimeError: tr is down"}
        for seed in (1, 2)
    ]
    assert read_json(str(out / "manifest.json"))["stats"] == {"episodes": 4, "failures": 2}
    assert not (out / "report.txt").exists()


def test_bench_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = ["bench", "--kinds", "chaotic", "--seeds", "1", "--peds", "8"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--jobs", "2"]) == 0
    assert (serial / "report.json").read_bytes() == (parallel / "report.json").read_bytes()
    for name in ("chaotic-1-fipp.jsonl", "chaotic-1-tr.jsonl"):
        assert (serial / "episodes" / name).read_bytes() == (
            parallel / "episodes" / name
        ).read_bytes()


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--kinds whirlpool", "kinds: unknown scenario kind 'whirlpool'"),
        ("--kinds ,", "kinds must name at least one scenario kind"),
        ("--seeds x", "seeds must be N, A-B or a comma-separated list of integers, got 'x'"),
        ("--seeds 1,,2", "seeds must be N, A-B or a comma-separated list of integers, got '1,,2'"),
        ("--seeds 0", "seeds must name at least one seed, got '0'"),
        ("--peds 0", "peds must be at least 1, got 0"),
        ("--lambda -1", "lambda_flow must be nonnegative"),
        ("--xi -1", "xi must be nonnegative"),
        ("--h 0", "influence radius h must be positive"),
        ("--cell-size 0", "cell_size must be positive"),
    ],
    ids=[
        "whirlpool", "no-kind", "seeds-x", "seeds-gap", "no-seed",
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

"""File format tests: track logs, field exports, plan exports, episode
logs and the shared JSON writer. Round trips must be lossless and parse
errors must carry the offending line number."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from fipp import (
    CostParams,
    FlowField,
    GridSpec,
    TrackFrame,
    Vec2,
    plan,
)
from fipp.io import (
    InputFormatError,
    read_episode_jsonl,
    read_field,
    read_json,
    read_track_log,
    write_episode_jsonl,
    write_field,
    write_json,
    write_plan,
    write_track_log,
)
from fipp.sim import generate_scenario, run_episode
from oracles import field_export_reference


def _frames():
    return [
        TrackFrame.from_rows(0.0, [(1, 1.25, 2.5, 1.2, 0.0), (2, 3.0, 4.0, 0.0, -0.7)]),
        TrackFrame.from_rows(0.1, [(1, 1.37, 2.5, 1.2, 0.0)]),
    ]


# ---------------------------------------------------------------------------
# track logs
# ---------------------------------------------------------------------------


def test_track_log_round_trip(tmp_path):
    path = str(tmp_path / "tracks.csv")
    frames = _frames()
    write_track_log(path, frames)
    assert read_track_log(path) == frames


def test_track_log_write_is_byte_stable(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_track_log(str(a), _frames())
    write_track_log(str(b), _frames())
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "# t,id,x,y,vx,vy"


def test_track_log_skips_empty_frames(tmp_path):
    path = str(tmp_path / "tracks.csv")
    frames = [
        _frames()[0],
        TrackFrame.from_rows(0.1, []),
        TrackFrame.from_rows(0.2, [(1, 1.0, 1.0, 0.0, 0.0)]),
    ]
    write_track_log(path, frames)
    back = read_track_log(path)
    # The empty frame produces no rows, so it vanishes on the way back.
    assert [f.t for f in back] == [0.0, 0.2]


def test_track_log_groups_rows_by_timestamp(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_text(
        "# t,id,x,y,vx,vy\n"
        "0.0,1,1.0,1.0,0.0,0.0\n"
        "0.0,2,2.0,2.0,0.0,0.0\n"
        "0.5,1,1.1,1.0,0.2,0.0\n"
    )
    frames = read_track_log(str(path))
    assert [len(f) for f in frames] == [2, 1]
    assert frames[1].t == 0.5


def test_track_log_reports_field_count_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# t,id,x,y,vx,vy\n0.0,1,1.0,1.0,0.0,0.0\n0.1,2,3.0\n")
    with pytest.raises(InputFormatError, match=r":3:.*expected 6 fields"):
        read_track_log(str(path))


def test_track_log_reports_non_numeric_fields(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1,one,1.0,0.0,0.0\n")
    with pytest.raises(InputFormatError, match=":1:"):
        read_track_log(str(path))


def test_track_log_rejects_a_repeated_id_naming_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# t,id,x,y,vx,vy\n0.0,1,1.0,1.0,0.0,0.0\n0.0,2,2.0,1.0,0.0,0.0\n"
        "0.0,1,3.0,1.0,0.0,0.0\n0.1,1,1.0,1.0,0.0,0.0\n"
    )
    with pytest.raises(InputFormatError, match=r"bad\.csv:4: pedestrian id 1 repeated at t=0\.0"):
        read_track_log(str(path))
    # The same id in the next frame is the same walker, not a repeat.
    path.write_text("0.0,1,1.0,1.0,0.0,0.0\n0.1,1,1.0,1.0,0.0,0.0\n")
    assert [f.ids.tolist() for f in read_track_log(str(path))] == [[1], [1]]


def test_track_log_rejects_regressing_timestamps(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,1,1.0,1.0,0.0,0.0\n0.5,1,1.0,1.0,0.0,0.0\n")
    with pytest.raises(InputFormatError, match=":2:.*non-decreasing"):
        read_track_log(str(path))


def test_track_log_rejects_implausible_speeds(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1,1.0,1.0,2.5,2.5\n")  # 3.54 m/s, over the 3.0 cap
    with pytest.raises(InputFormatError, match=":1:.*cap"):
        read_track_log(str(path))


def test_track_log_accepts_speed_at_the_cap(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("0.0,1,1.0,1.0,3.0,0.0\n")
    frames = read_track_log(str(path))
    assert frames[0].state[0, 2:].tolist() == [3.0, 0.0]


@pytest.mark.parametrize(
    "row",
    [
        "0.0,1,nan,1.0,0.0,0.0",
        "0.0,1,1.0,inf,0.0,0.0",
        "0.0,1,1.0,1.0,nan,0.0",  # hypot(nan, 0) > cap is False
        "0.0,1,1.0,1.0,0.0,-inf",
        "nan,1,1.0,1.0,0.0,0.0",
    ],
)
def test_track_log_rejects_non_finite_numbers(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"# t,id,x,y,vx,vy\n0.0,0,1.0,1.0,0.0,0.0\n{row}\n")
    with pytest.raises(InputFormatError, match=r":3:.*non-finite"):
        read_track_log(str(path))


def test_track_log_ignores_blanks_and_comments(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("\n# comment\n0.0,1,1.0,1.0,0.0,0.0\n\n")
    assert len(read_track_log(str(path))) == 1


@pytest.mark.filterwarnings("error")
def test_track_log_with_only_a_header_has_no_frames(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# t,id,x,y,vx,vy\n")
    assert read_track_log(str(path)) == []


@pytest.mark.parametrize(
    "row, field",
    [
        ("0.0,9223372036854775808,1.0,1.0,0.0,0.0", "'9223372036854775808'"),
        ("0.0,-9223372036854775809,1.0,1.0,0.0,0.0", "'-9223372036854775809'"),
        ("0.0,1_0,1.0,1.0,0.0,0.0", "'1_0'"),
        ("0.0,1,1_000.5,1.0,0.0,0.0", "'1_000.5'"),
        ("0.0,\u0663,1.0,1.0,0.0,0.0", "'\u0663'"),  # ARABIC-INDIC DIGIT THREE
        ("0.0,1,1.0,\u0969.5,0.0,0.0", "'\u0969.5'"),  # DEVANAGARI DIGIT THREE
    ],
)
def test_track_log_numbers_outside_the_grammar_are_errors_naming_the_line(tmp_path, row, field):
    # Python's int() and float() take these; the reader's grammar does not.
    path = tmp_path / "bad.csv"
    path.write_text(f"# t,id,x,y,vx,vy\n0.0,0,1.0,1.0,0.0,0.0\n{row}\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match=rf"bad\.csv:3: {field} is not a number"):
        read_track_log(str(path))


def test_track_log_keeps_the_ids_at_the_int64_limits(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text(
        "0.0,9223372036854775807,1.0,1.0,0.0,0.0\n0.0,-9223372036854775808,2.0,1.0,0.0,0.0\n"
    )
    assert read_track_log(str(path))[0].ids.tolist() == [2**63 - 1, -(2**63)]


@pytest.mark.parametrize(
    "rows, line",
    [
        # A speed over the cap comes before a field that does not parse.
        (["0.0,1,1.0,1.0,0.0,0.0", "0.0,2,1.0,1.0,2.5,2.5", "0.1,1,one,1.0,0.0,0.0"], 3),
        # A repeated id comes before a row with too few fields.
        (["0.0,1,1.0,1.0,0.0,0.0", "0.0,1,1.0,1.0,0.0,0.0", "0.1,1,1.0"], 3),
        # Going back in time comes before an id outside int64.
        (["0.5,1,1.0,1.0,0.0,0.0", "0.25,1,1.0,1.0,0.0,0.0", f"0.6,{10**20},1.0,1.0,0.0,0.0"], 3),
        # A non-finite number comes before both.
        (["0.0,1,nan,1.0,0.0,0.0", "0.0,1,1.0,1.0,9.0,0.0", "x"], 2),
        # The parse error comes first.
        (["0.0,1,1.0,1.0,0.0,0.0", "0.0,1,1.0,1.0,0.0,1e", "0.0,1,1.0,1.0,0.0,0.0"], 3),
    ],
)
def test_track_log_error_names_the_first_offending_line(tmp_path, rows, line):
    path = tmp_path / "bad.csv"
    path.write_text("# t,id,x,y,vx,vy\n" + "\n".join(rows) + "\n")
    with pytest.raises(InputFormatError, match=rf"bad\.csv:{line}: "):
        read_track_log(str(path))


# ---------------------------------------------------------------------------
# field exports
# ---------------------------------------------------------------------------


def _field():
    spec = GridSpec(Vec2(1.0, -2.0), 0.5, 4, 3)
    field = FlowField(spec)
    rng = np.random.default_rng(5)
    field.force[:] = rng.normal(size=field.force.shape)
    return field


def test_field_round_trip_is_exact(tmp_path):
    path = str(tmp_path / "field.csv")
    field = _field()
    write_field(path, field)
    back = read_field(path)
    assert back.spec == field.spec
    assert np.array_equal(back.force, field.force)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_field_export_matches_the_per_cell_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    spec = GridSpec(Vec2(*rng.normal(size=2).tolist()), float(rng.uniform(0.1, 1.0)), 80, 60)
    field = FlowField(spec)
    scale = rng.choice([1e-8, 1.0, 1e3], size=(60, 80, 1))
    field.force[:] = rng.normal(size=field.force.shape) * scale
    path = tmp_path / "field.txt"
    write_field(str(path), field)
    assert path.read_text() == field_export_reference(field)


def test_field_rows_carry_cell_centers_and_magnitude(tmp_path):
    path = tmp_path / "field.csv"
    field = _field()
    write_field(str(path), field)
    row = path.read_text().splitlines()[2].split(",")
    assert row[0] == "0" and row[1] == "0"
    assert float(row[2]) == 1.25 and float(row[3]) == -1.75
    assert float(row[6]) == pytest.approx(math.hypot(float(row[4]), float(row[5])))


def test_field_read_requires_meta_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,0.25,0.25,1.0,0.0,1.0\n")
    with pytest.raises(InputFormatError, match="before grid meta"):
        read_field(str(path))
    empty = tmp_path / "empty.csv"
    empty.write_text("# just a comment\n")
    with pytest.raises(InputFormatError, match="no grid meta"):
        read_field(str(empty))


def test_field_read_rejects_out_of_grid_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# grid 0.0 0.0 0.5 2 2\n9,0,0.25,0.25,1.0,0.0,1.0\n")
    with pytest.raises(InputFormatError, match=r":2:.*outside grid"):
        read_field(str(path))


@pytest.mark.parametrize("fx,fy", [("nan", "0.0"), ("0.5", "inf"), ("-inf", "nan")])
def test_field_read_rejects_non_finite_forces(tmp_path, fx, fy):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# grid 0.0 0.0 0.5 2 1\n"
        "0,0,0.25,0.25,1.0,0.0,1.0\n"
        f"1,0,0.75,0.25,{fx},{fy},1.0\n"
    )
    with pytest.raises(InputFormatError, match=r":3:.*non-finite force"):
        read_field(str(path))


def test_field_read_rejects_a_cell_listed_twice_naming_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "# grid 0.0 0.0 0.5 2 1\n"
        "0,0,0.25,0.25,1.0,0.0,1.0\n"
        "0,0,0.25,0.25,0.5,0.0,0.5\n"
    )
    with pytest.raises(InputFormatError, match=r"bad\.txt:3: cell \(0,0\) listed twice"):
        read_field(str(path))


def test_field_read_rejects_missing_cells_naming_the_first(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "# grid 0.0 0.0 0.5 2 2\n"
        "0,0,0.25,0.25,1.0,0.0,1.0\n"
        "0,1,0.25,0.75,1.0,0.0,1.0\n"
    )
    with pytest.raises(InputFormatError, match=r"bad\.txt: cell \(1,0\) missing"):
        read_field(str(path))


def test_field_read_rejects_a_non_finite_grid_naming_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# grid 0.0 0.0 nan 2 1\n")
    with pytest.raises(InputFormatError, match=r"bad\.txt:1: cell_size must be a finite number"):
        read_field(str(path))


def test_field_read_rejects_a_second_meta_line_naming_it(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "# grid 0.0 0.0 0.5 2 1\n"
        "0,0,0.25,0.25,1.0,0.0,1.0\n"
        "1,0,0.75,0.25,1.0,0.0,1.0\n"
        "# grid 0.0 0.0 0.5 1 1\n"
        "0,0,0.25,0.25,2.0,0.0,2.0\n"
    )
    with pytest.raises(InputFormatError, match=r"bad\.txt:4: second grid meta line"):
        read_field(str(path))


def test_field_read_names_a_bad_row_before_a_second_meta_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "# grid 0.0 0.0 0.5 2 1\n"
        "0,0,0.25,0.25,1.0,0.0,1.0\n"
        "0,0,0.75,0.25,1.0,0.0,1.0\n"
        "# grid 0.0 0.0 0.5 1 1\n"
    )
    with pytest.raises(InputFormatError, match=r"bad\.txt:3: cell \(0,0\) listed twice"):
        read_field(str(path))


@pytest.mark.parametrize("cell", ["1_0", "\u0663", "9223372036854775808"])
def test_field_read_rejects_cells_outside_the_grammar_naming_the_line(tmp_path, cell):
    path = tmp_path / "bad.txt"
    path.write_text(
        "# grid 0.0 0.0 0.5 2 1\n"
        "0,0,0.25,0.25,1.0,0.0,1.0\n"
        f"{cell},0,0.75,0.25,1.0,0.0,1.0\n",
        encoding="utf-8",
    )
    with pytest.raises(InputFormatError, match=rf"bad\.txt:3: '{cell}' is not a number"):
        read_field(str(path))


def test_field_read_names_a_missing_cell_of_a_huge_grid_without_allocating_it(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# grid 0.0 0.0 0.5 1000000000000 1000000000000\n0,0,0.25,0.25,1.0,0.0,1.0\n")
    with pytest.raises(InputFormatError, match=r"bad\.txt: cell \(1,0\) missing"):
        read_field(str(path))


def test_field_read_rejects_malformed_meta(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# grid 0.0 0.0 0.5 2\n")
    with pytest.raises(InputFormatError, match="malformed grid meta"):
        read_field(str(path))


# ---------------------------------------------------------------------------
# plan exports
# ---------------------------------------------------------------------------


def test_write_plan_rows_and_totals(tmp_path):
    spec = GridSpec(Vec2(0.0, 0.0), 1.0, 5, 5)
    field = FlowField(spec)
    params = CostParams()
    result = plan(field, Vec2(0.5, 0.5), Vec2(4.5, 4.5), params)
    path = tmp_path / "plan.csv"
    write_plan(str(path), result, field)
    lines = path.read_text().splitlines()
    assert lines[0] == "# i,j,cx,cy,edge_cost_T,edge_cost_F"
    assert len(lines) == 2 + len(result.path)
    first = lines[1].split(",")
    assert (int(first[0]), int(first[1])) == result.path[0]
    assert float(first[4]) == 0.0  # no step onto the start cell
    total = lines[-1]
    assert total.startswith("# total C_T=")
    assert f"C_phi={result.cost_total!r}" in total
    assert f"expanded={result.expanded}" in total
    step_costs = [float(line.split(",")[4]) for line in lines[1:-1]]
    assert sum(step_costs) == pytest.approx(result.cost_T)


def test_write_plan_step_costs_sum_to_the_totals(tmp_path):
    rng = np.random.default_rng(12)
    spec = GridSpec(Vec2(0.0, 0.0), 0.5, 16, 12)
    field = FlowField(spec)
    field.force[:] = rng.normal(0.0, 1.0, size=field.force.shape)
    params = CostParams(lambda_flow=2.0)
    result = plan(field, spec.cell_center(1, 2), spec.cell_center(14, 10), params)
    path = tmp_path / "plan.txt"
    write_plan(str(path), result, field)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:-1]]
    assert [(int(r[0]), int(r[1])) for r in rows] == result.path
    step_t = [float(r[4]) for r in rows]
    step_f = [float(r[5]) for r in rows]
    assert result.cost_F > 0.0
    assert abs(sum(step_t) - result.cost_T) <= 1e-9
    assert abs(sum(step_f) - result.cost_F) <= 1e-9
    assert abs(sum(step_t) + sum(step_f) - result.cost_total) <= 1e-9


# ---------------------------------------------------------------------------
# episode logs
# ---------------------------------------------------------------------------


def test_episode_round_trip(tmp_path):
    sc = generate_scenario("single_flow", 8, seed=2)
    log = run_episode(sc, "tr", max_t=3.0)
    path = str(tmp_path / "episode.jsonl")
    write_episode_jsonl(path, log)
    back = read_episode_jsonl(path)
    assert back.scenario == log.scenario
    assert back.planner == log.planner
    assert back.sim_dt == log.sim_dt
    assert back.max_t == log.max_t
    assert back.outcome == log.outcome
    assert back.records == log.records
    assert back.error is None  # not serialized


def test_episode_lines_are_compact_sorted_json(tmp_path):
    sc = generate_scenario("chaotic", 3, seed=1)
    log = run_episode(sc, "tr", max_t=1.0)
    path = tmp_path / "episode.jsonl"
    write_episode_jsonl(str(path), log)
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0])
    assert list(meta) == sorted(meta)
    assert ": " not in lines[1]  # compact separators
    assert json.loads(lines[-1]) == {"outcome": log.outcome}


def test_episode_read_rejects_truncated_file(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"planner":"tr"}\n')
    with pytest.raises(InputFormatError, match="truncated"):
        read_episode_jsonl(str(path))


def test_episode_read_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"planner":"tr"}\nnot json\n{"outcome":"reached"}\n')
    with pytest.raises(InputFormatError):
        read_episode_jsonl(str(path))


# ---------------------------------------------------------------------------
# json helper
# ---------------------------------------------------------------------------


def test_write_json_sorted_with_trailing_newline(tmp_path):
    path = tmp_path / "out.json"
    write_json(str(path), {"zeta": 1, "alpha": {"b": 2, "a": 3}})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"zeta"')
    assert read_json(str(path)) == {"zeta": 1, "alpha": {"b": 2, "a": 3}}

"""File format tests: track logs, field exports, plan exports, episode
logs and the shared JSON writer. Round trips must be lossless and parse
errors must carry the offending line number."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fipp import (
    CostParams,
    FlowField,
    GridSpec,
    TrackFrame,
    Vec2,
    plan,
)
from fipp.flowfield import V_PED_MAX, force_magnitude
from fipp.io import (
    InputFormatError,
    read_field,
    read_track_log,
    write_episode_jsonl,
    write_field,
    write_json,
    write_plan,
    write_track_log,
)
from fipp.sim import (
    SIM_DT,
    EpisodeLog,
    StepRecord,
    generate_scenario,
    run_episode,
    simulate_tracks,
)
from oracles import (
    episode_step_line_reference,
    field_export_reference,
    read_track_log_reference,
    track_log_reference,
)
from tracklogs import frames_of


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
    assert frames_of(read_track_log(path)) == frames


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
    assert back.t.tolist() == [0.0, 0.2]
    assert back.starts.tolist() == [0, 2]


def test_track_log_groups_rows_by_timestamp(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_text(
        "# t,id,x,y,vx,vy\n"
        "0.0,1,1.0,1.0,0.0,0.0\n"
        "0.0,2,2.0,2.0,0.0,0.0\n"
        "0.5,1,1.1,1.0,0.2,0.0\n"
    )
    log = read_track_log(str(path))
    assert log.starts.tolist() == [0, 2]
    assert log.t.tolist() == [0.0, 0.5]
    assert log.ids.tolist() == [1, 2, 1]


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
    assert [f.ids.tolist() for f in frames_of(read_track_log(str(path)))] == [[1], [1]]


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
    log = read_track_log(str(path))
    assert log.state[0, 2:].tolist() == [3.0, 0.0]


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
    assert read_track_log(str(path)).t.size == 1


@pytest.mark.filterwarnings("error")
def test_track_log_with_only_a_header_has_no_frames(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# t,id,x,y,vx,vy\n")
    log = read_track_log(str(path))
    assert log.t.size == log.ids.size == 0


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
    assert read_track_log(str(path)).ids.tolist() == [2**63 - 1, -(2**63)]


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


# The track-log reader reads in blocks of about fipp.io._BLOCK_CHARS
# characters, each completed to the end of its last line. Read at every
# block size from one character up, a log must give what it gives in one
# block, which must be what the per-line reference reads: the same frames
# bit for bit, or the same error text naming the reference's line.
_HEADER = "# t,id,x,y,vx,vy"
_ROWS = ["0.0,1,1.0,2.0,0.5,0.0", "0.0,2,3.0,4.0,0.0,0.5", "0.1,1,1.05,2.0,0.5,0.0",
         "0.1,2,3.0,4.05,0.0,0.5"]


def _read_outcome(path: str):
    """The frames read_track_log gives as (t, ids, state bytes), or its
    error text."""
    try:
        return [(f.t, f.ids.tolist(), f.state.tobytes()) for f in frames_of(read_track_log(path))]
    except InputFormatError as exc:
        return str(exc)


def _check_every_block_size(tmp_path, text: str, error: str | None) -> None:
    import fipp.io

    path = tmp_path / "tracks.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    whole = _read_outcome(str(path))
    expected = read_track_log_reference(str(path), V_PED_MAX)
    if error is None:
        assert whole == [
            (t, [row[0] for row in rows], np.array([row[1:] for row in rows], float).tobytes())
            for t, rows in expected
        ]
    else:
        assert whole == f"{path}:{expected[1]}: {error}"
    for size in range(1, len(text) + 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fipp.io, "_BLOCK_CHARS", size)
            assert _read_outcome(str(path)) == whole, size


@pytest.mark.parametrize(
    "lines, newline, final_newline, error",
    [
        ([_HEADER, *_ROWS[:3], "0.1,1_0,3.0,4.05,0.0,0.5"], "\n", True,
         "'1_0' is not a number this reader accepts: ASCII digits, no '_' separators, "
         "integers within int64"),
        ([_HEADER, *_ROWS[:2], "0.1,2,nan,4.05,0.0,0.5", *_ROWS[2:]], "\n", True,
         "non-finite number in '0.1,2,nan,4.05,0.0,0.5'"),
        ([_HEADER, *_ROWS[:2], "0.1,2,3.0,4.05,0.0", *_ROWS[2:]], "\n", True,
         "expected 6 fields t,id,x,y,vx,vy, got 5"),
        ([_HEADER, *_ROWS[:3], "0.05,3,1.0,1.0,0.0,0.0"], "\n", True,
         "timestamps must be non-decreasing (0.05 after 0.1)"),
        ([_HEADER, *_ROWS, *_ROWS[2:3]], "\n", True, "pedestrian id 1 repeated at t=0.1"),
        ([_HEADER, *_ROWS[:2], "0.1,1,1.05,2.0,3.5,0.0"], "\n", True,
         "velocity 3.500 m/s exceeds the 3.0 m/s pedestrian cap"),
        ([_HEADER, *_ROWS], "\r\n", True, None),
        ([_HEADER, *_ROWS[:2], "0.1,1,1.05,2.0,0.5,0.0\x00"], "\r\n", True,
         "could not convert string to float: '0.0\\x00'"),
        ([_HEADER, "# caf\u00e9 \u00b1 \u2014 \U0001f6b6", *_ROWS], "\n", True, None),
        ([_HEADER, *_ROWS[:2], "0.1,1,1.05,2.0,0.5,\u0663"], "\n", True,
         "'\u0663' is not a number this reader accepts: ASCII digits, no '_' separators, "
         "integers within int64"),
        ([_HEADER, *_ROWS[:2], "0.1,1,1.05,2.0,0.5,0.\udcff"], "\n", True,
         "could not convert string to float: '0.\\udcff'"),
        ([_HEADER, "", _ROWS[0], "# a comment", "   ", _ROWS[1], "#", "", *_ROWS[2:]], "\n",
         True, None),
        ([_HEADER, *_ROWS], "\n", False, None),
        ([_HEADER, *_ROWS, "0.2,1,1.1,2.0,0.5"], "\n", False,
         "expected 6 fields t,id,x,y,vx,vy, got 5"),
    ],
    ids=["bad_number", "non_finite", "short_row", "backwards", "repeated_id", "too_fast",
         "crlf", "crlf_bad_row", "utf8_comment", "utf8_digit", "not_utf8", "comments_and_blanks",
         "no_final_newline", "no_final_newline_bad_row"],
)
def test_track_log_reads_the_same_at_every_block_edge(
    tmp_path, lines, newline, final_newline, error
):
    text = newline.join(lines) + (newline if final_newline else "")
    _check_every_block_size(tmp_path, text, error)


@pytest.mark.parametrize("straddle", ["\r\n", "\u00e9", "\U0001f6b6"])
@pytest.mark.parametrize("size", [1, 7, 4096, 8191, 8192, 8193, None])
def test_track_log_reads_a_pair_split_across_the_files_byte_chunks(tmp_path, straddle, size):
    # Blocks are cut in decoded characters, so a '\r\n' pair or a
    # multi-byte UTF-8 sequence lies within one block; what can split one
    # is the text layer's 8192-byte reads of the file. Put one across that
    # edge, with a bad row right after it.
    import fipp.io

    head = "\r\n".join([_HEADER, *_ROWS]) + "\r\n"
    pad = 8192 - len(head.encode()) - len(straddle.encode()) // 2 - len("# ")
    text = head + "# " + "x" * pad + straddle
    if straddle != "\r\n":
        text += "\r\n"
    text += "0.2,1_0,1.1,2.0,0.5,0.0\r\n"
    path = tmp_path / "tracks.txt"
    path.write_bytes(text.encode())
    line = read_track_log_reference(str(path), V_PED_MAX)[1]
    assert line == 7
    with pytest.MonkeyPatch.context() as mp:
        if size is not None:
            mp.setattr(fipp.io, "_BLOCK_CHARS", size)
        with pytest.raises(InputFormatError, match=rf"tracks\.txt:{line}: '1_0' is not a number"):
            read_track_log(str(path))


def test_track_log_bad_row_starting_at_a_block_edge_names_its_line(tmp_path, monkeypatch):
    import fipp.io

    bad = "0.1,1_0,3.0,4.05,0.0,0.5"
    text = "\n".join([_HEADER, *_ROWS[:3], bad, _ROWS[3]]) + "\n"
    path = tmp_path / "tracks.txt"
    path.write_text(text)
    # The first block's characters end just before the bad row, and just
    # after its first character.
    for size in (text.index(bad), text.index(bad) + 1):
        monkeypatch.setattr(fipp.io, "_BLOCK_CHARS", size)
        with pytest.raises(InputFormatError, match=r"tracks\.txt:5: '1_0' is not a number"):
            read_track_log(str(path))


@pytest.mark.parametrize(
    "bad, error",
    [("0.1,1_0,3.0,4.05,0.0,0.5", r"tracks\.txt:3: '1_0' is not a number"),
     ("0.1,2,nan,4.05,0.0,0.5", r"tracks\.txt:3: non-finite number in '0\.1,2,nan")],
    ids=["bad_number", "nan"],
)
def test_track_read_opens_its_file_once(tmp_path, monkeypatch, bad, error):
    import fipp.io

    path = tmp_path / "tracks.txt"
    path.write_text("\n".join([_HEADER, _ROWS[0], bad]) + "\n")
    opened = []
    open_text = fipp.io._open_text
    monkeypatch.setattr(fipp.io, "_open_text", lambda p: opened.append(p) or open_text(p))
    with pytest.raises(InputFormatError, match=error):
        read_track_log(str(path))
    assert opened == [str(path)]


# A plain track log (the writer's layout) is parsed in one numpy pass; any
# other file goes to the block scanner, fipp.io._scan. Either way a read
# gives the same frames, or the same error text naming the same line.


def _crowd_log(tmp_path):
    """The track log of a simulated crowd, as write_track_log writes it
    (12 walkers, 31 frames: 373 lines), and its frames."""
    frames = simulate_tracks(generate_scenario("intersection", 12, 4), 3.0)
    path = tmp_path / "tracks.txt"
    write_track_log(str(path), frames)
    return path, frames


def _as_bits(frames):
    return [(float(f.t), f.ids.tolist(), f.state.tobytes()) for f in frames]


def _read_bits(path):
    """``_as_bits`` of the frames read_track_log reads from ``path``."""
    return _as_bits(frames_of(read_track_log(str(path))))


def _spy_on_scan(monkeypatch) -> list:
    """Record every call of the block scanner."""
    import fipp.io

    calls = []
    scan = fipp.io._scan
    monkeypatch.setattr(fipp.io, "_scan", lambda *args: calls.append(args) or scan(*args))
    return calls


def _spy_on_loadtxt(monkeypatch) -> list:
    """Record what every np.loadtxt call is given to read: a plain file
    reaches it as a path, the scanner's rows as a list."""
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(
        np, "loadtxt", lambda fname, *args, **kw: calls.append(fname) or loadtxt(fname, *args, **kw)
    )
    return calls


def _paths(calls) -> list:
    return [fname for fname in calls if isinstance(fname, str)]


def _pipe_of(tmp_path, data: bytes):
    """A named pipe that a started thread writes ``data`` into, and the thread."""
    fifo = tmp_path / "pipe.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return fifo, writer


def test_a_written_track_log_is_read_without_the_block_scanner(tmp_path, monkeypatch):
    import fipp.io

    path, frames = _crowd_log(tmp_path)

    def no_scan(*args):
        raise AssertionError("the block scanner read a plain track log")

    monkeypatch.setattr(fipp.io, "_scan", no_scan)
    read = read_track_log(str(path))
    assert _as_bits(frames_of(read)) == _as_bits(frames)
    assert read.state.flags.c_contiguous


def _comment_mid_file(text: str) -> str:
    lines = text.split("\n")
    lines.insert(100, "# a comment between rows")
    return "\n".join(lines)


@pytest.mark.parametrize(
    "edit",
    [_comment_mid_file, lambda text: text.replace("\n", "\r\n"),
     lambda text: text.replace("\n", "\n\n", 3), lambda text: text.replace("\n", " \n", 3)],
    ids=["comment", "crlf", "blank_lines", "trailing_spaces"],
)
def test_a_track_log_that_is_not_plain_is_read_by_the_block_scanner(tmp_path, monkeypatch, edit):
    path, frames = _crowd_log(tmp_path)
    path.write_bytes(edit(path.read_text()).encode())
    calls = _spy_on_scan(monkeypatch)
    loads = _spy_on_loadtxt(monkeypatch)
    assert _read_bits(path) == _as_bits(frames)
    assert len(calls) == 1
    # The byte check sends it there before numpy parses the path.
    assert not _paths(loads)


def _repeat_id(row, before):
    return [row[0], before[1], *row[2:]]


# Line 200 is the 7th row (id 6) of the frame at t = 1.6, lines 194-205 of
# the crowd's 373. Each edit gets that row and the one before it.
@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda row, _: row + ["0.0"], "expected 6 fields t,id,x,y,vx,vy, got 7"),
        (lambda row, _: [row[0], "1_0", *row[2:]], "'1_0' is not a number"),
        (lambda row, _: [row[0], str(2**63), *row[2:]], f"'{2**63}' is not a number"),
        (lambda row, _: [*row[:2], "nan", *row[3:]], "non-finite number in"),
        (lambda row, _: [*row[:4], "3.5", "0.0"],
         r"velocity 3\.500 m/s exceeds the 3\.0 m/s pedestrian cap"),
        (lambda row, _: ["0.5", *row[1:]], r"timestamps must be non-decreasing \(0\.5 after 1\.6\)"),
        (_repeat_id, r"pedestrian id 5 repeated at t=1\.6"),
    ],
    ids=["seven_fields", "underscore", "past_int64", "nan", "too_fast", "backwards",
         "repeated_id"],
)
@pytest.mark.parametrize("blank_line", [False, True], ids=["plain", "after_a_blank_line"])
def test_a_track_log_failing_a_check_names_the_line_the_scanner_names(
    tmp_path, monkeypatch, edit, reason, blank_line
):
    import fipp.io

    path, _ = _crowd_log(tmp_path)
    lines = path.read_text().split("\n")
    lines[199] = ",".join(edit(lines[199].split(","), lines[198].split(",")))
    if blank_line:  # numpy would skip it, so only the scanner counts it
        lines.insert(100, "")
    path.write_text("\n".join(lines))
    line = 201 if blank_line else 200
    with pytest.raises(InputFormatError, match=rf"tracks\.txt:{line}: {reason}") as got:
        read_track_log(str(path))
    monkeypatch.setattr(fipp.io, "_read_plain", lambda fh, dtype, is_row: None)
    with pytest.raises(InputFormatError) as scanned:
        read_track_log(str(path))
    assert str(got.value) == str(scanned.value)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_track_log_from_a_pipe_is_read_once_by_the_block_scanner(tmp_path, monkeypatch):
    path, frames = _crowd_log(tmp_path)
    fifo, writer = _pipe_of(tmp_path, path.read_bytes())
    calls = _spy_on_scan(monkeypatch)
    loads = _spy_on_loadtxt(monkeypatch)
    read = _read_bits(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert read == _as_bits(frames)
    assert len(calls) == 1
    assert not _paths(loads)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text", ["", "# t,id,x,y,vx,vy", "# t,id,x,y,vx,vy\n\n\n", "\n"],
    ids=["empty", "header_no_newline", "header_and_blank_lines", "blank_line"],
)
def test_a_track_log_with_no_row_has_no_frames_and_no_warning(tmp_path, text):
    # More bodies without a row than test_track_log_with_only_a_header_has_no_frames:
    # numpy would warn on each, so none may reach it.
    path = tmp_path / "tracks.txt"
    path.write_text(text)
    log = read_track_log(str(path))
    assert log.t.size == log.ids.size == 0


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


@pytest.mark.parametrize("pad", ["\t", "\x1c", "\xa0"], ids=["tab", "x1c", "nbsp"])
def test_field_read_names_a_padded_bad_number_without_its_padding(tmp_path, pad):
    path = tmp_path / "bad.txt"
    path.write_text(
        "# grid 0.0 0.0 0.5 2 1\n"
        "0,0,0.25,0.25,1.0,0.0,1.0\n"
        f"{pad}1_0,0,0.75,0.25,1.0,0.0,1.0{pad}\n",
        encoding="utf-8",
    )
    with pytest.raises(InputFormatError) as exc:
        read_field(str(path))
    assert str(exc.value) == (
        f"{path}:3: '1_0' is not a number this reader accepts: ASCII digits, "
        "no '_' separators, integers within int64"
    )


def test_field_read_names_a_row_before_the_meta_line_before_its_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# i,j,cx,cy,fx,fy,mag\nx,0,0.25,0.25,1.0,0.0,1.0\n# grid 0.0 0.0 0.5 1 1\n")
    with pytest.raises(InputFormatError) as exc:
        read_field(str(path))
    assert str(exc.value) == f"{path}:2: data row before grid meta line"


def test_field_read_names_a_missing_cell_of_a_huge_grid_without_allocating_it(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# grid 0.0 0.0 0.5 1000000000000 1000000000000\n0,0,0.25,0.25,1.0,0.0,1.0\n")
    with pytest.raises(InputFormatError, match=r"bad\.txt: cell \(1,0\) missing"):
        read_field(str(path))


# A field export is read as a track log is: a plain one (LF, as
# write_field writes it) in one numpy pass, any other by the block scanner.


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("size", [80, 1])
def test_field_in_the_writers_layout_is_read_without_the_line_scan(
    tmp_path, monkeypatch, size, newline
):
    spec = GridSpec(Vec2(-1.5, 2.0), 0.25, size, size)
    field = FlowField(spec)
    field.force[:] = np.random.default_rng(size).normal(size=field.force.shape)
    path = tmp_path / "field.txt"
    write_field(str(path), field)
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    calls = _spy_on_scan(monkeypatch)
    loads = _spy_on_loadtxt(monkeypatch)
    back = read_field(str(path))
    assert back.spec == spec
    assert back.force.tobytes() == field.force.tobytes()
    assert len(calls) == (0 if newline == "\n" else 1)
    assert _paths(loads) == ([str(path)] if newline == "\n" else [])


@pytest.mark.parametrize("where", ["after_the_header", "inside_a_block", "across_a_block_edge"])
def test_a_field_export_with_a_blank_line_is_read_by_the_block_scanner(
    tmp_path, monkeypatch, where
):
    import fipp.io

    field = FlowField(GridSpec(Vec2(-1.5, 2.0), 0.25, 8, 6))
    field.force[:] = np.random.default_rng(8).normal(size=field.force.shape)
    path = tmp_path / "field.txt"
    write_field(str(path), field)
    lines = path.read_bytes().split(b"\n")  # meta line, header, then a row per line
    blank = {"after_the_header": 2, "inside_a_block": 20, "across_a_block_edge": 10}[where]
    if where == "across_a_block_edge":
        # The byte check takes line 3 alone, then blocks of _BLOCK_CHARS:
        # the first of these ends with line 10's newline, the next starts
        # with the blank line.
        monkeypatch.setattr(fipp.io, "_BLOCK_CHARS", len(b"\n".join(lines[3:10])) + 1)
    lines.insert(blank, b"")
    path.write_bytes(b"\n".join(lines))
    calls = _spy_on_scan(monkeypatch)
    loads = _spy_on_loadtxt(monkeypatch)
    back = read_field(str(path))
    assert back.force.tobytes() == field.force.tobytes()
    assert len(calls) == 1
    assert not _paths(loads)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_field_export_from_a_pipe_is_read_once_by_the_block_scanner(tmp_path, monkeypatch):
    field = FlowField(GridSpec(Vec2(-1.5, 2.0), 0.25, 8, 6))
    field.force[:] = np.random.default_rng(8).normal(size=field.force.shape)
    path = tmp_path / "field.txt"
    write_field(str(path), field)
    fifo, writer = _pipe_of(tmp_path, path.read_bytes())
    calls = _spy_on_scan(monkeypatch)
    loads = _spy_on_loadtxt(monkeypatch)
    back = read_field(str(fifo))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert back.force.tobytes() == field.force.tobytes()
    assert len(calls) == 1
    assert not _paths(loads)


def _on_field_row(edit):
    """An edit of an export's lines that edits line 20, the row of cell
    (1,2), given the fields of that row and of the one before it."""
    def on_lines(lines):
        lines[19] = ",".join(edit(lines[19].split(","), lines[18].split(",")))
    return on_lines


# Each edit gets the lines of an 8x6 export as write_field writes it (meta
# line, header, then the 48 rows on lines 3-50); the reason is the error
# text after the file name.
@pytest.mark.parametrize(
    "edit, reason",
    [
        (_on_field_row(lambda row, _: row[:6]), ":20: expected 7 fields i,j,cx,cy,fx,fy,mag"),
        (_on_field_row(lambda row, _: row + ["0.0"]),
         ":20: expected 7 fields i,j,cx,cy,fx,fy,mag"),
        (_on_field_row(lambda row, _: ["1_0", *row[1:]]), ":20: '1_0' is not a number"),
        (_on_field_row(lambda row, _: [*row[:4], "nan", *row[5:]]),
         r":20: non-finite force \(nan, "),
        (_on_field_row(lambda row, _: ["8", *row[1:]]), r":20: cell \(8,2\) outside grid"),
        (_on_field_row(lambda row, before: before), r":20: cell \(0,2\) listed twice"),
        (lambda lines: lines.pop(19), r": cell \(1,2\) missing"),
        (lambda lines: lines.pop(0), ":2: data row before grid meta line"),
        (lambda lines: lines.insert(1, lines[0]), ":2: second grid meta line"),
    ],
    ids=["six_fields", "eight_fields", "underscore", "nan", "outside", "twice", "missing",
         "no_grid", "two_grids"],
)
def test_a_field_export_failing_a_check_names_the_line_the_scanner_names(
    tmp_path, monkeypatch, edit, reason
):
    import fipp.io

    field = FlowField(GridSpec(Vec2(-1.5, 2.0), 0.25, 8, 6))
    field.force[:] = np.random.default_rng(8).normal(size=field.force.shape)
    path = tmp_path / "field.txt"
    write_field(str(path), field)
    lines = path.read_text().split("\n")
    edit(lines)
    path.write_text("\n".join(lines))
    with pytest.raises(InputFormatError, match=rf"field\.txt{reason}") as got:
        read_field(str(path))
    monkeypatch.setattr(fipp.io, "_read_plain", lambda fh, dtype, is_row: None)
    with pytest.raises(InputFormatError) as scanned:
        read_field(str(path))
    assert str(got.value) == str(scanned.value)


def _commented_crlf(text: str) -> str:
    lines = text.split("\n")
    lines.insert(3, "  # a comment between rows")
    return "\r\n".join(lines)


def _bad_number(text: str) -> str:
    lines = text.split("\n")
    lines[4] = "1_0" + lines[4][lines[4].index(","):]
    return "\n".join(lines)


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda text: text, None),
        (_commented_crlf, None),
        (_bad_number, r"field\.txt:5: '1_0' is not a number"),
    ],
    ids=["as_written", "commented_crlf", "bad_number"],
)
def test_field_read_opens_its_file_once(tmp_path, monkeypatch, edit, error):
    import fipp.io

    field = FlowField(GridSpec(Vec2(0.0, 0.0), 0.5, 3, 2))
    field.force[...] = np.arange(12.0).reshape(2, 3, 2)
    path = tmp_path / "field.txt"
    write_field(str(path), field)
    path.write_bytes(edit(path.read_text()).encode())
    opened = []
    open_text = fipp.io._open_text
    monkeypatch.setattr(fipp.io, "_open_text", lambda p: opened.append(p) or open_text(p))
    if error is None:
        assert read_field(str(path)).force.tobytes() == field.force.tobytes()
    else:
        with pytest.raises(InputFormatError, match=error):
            read_field(str(path))
    assert opened == [str(path)]


# A plain file is parsed through its path, in numpy's block mode. numpy
# opens the path again through np.lib._datasource, so the reader keeps that
# open from decompressing a file, fetching a URL or parsing another file.


def _plain_file(directory, kind, name, seed=4):
    """A plain track log ("track") or 8x6 field export ("field") at
    ``directory / name``, as the writers write it."""
    path = directory / name
    if kind == "track":
        write_track_log(
            str(path), simulate_tracks(generate_scenario("intersection", 12, seed), 3.0)
        )
    else:
        field = FlowField(GridSpec(Vec2(-1.5, 2.0), 0.25, 8, 6))
        field.force[:] = np.random.default_rng(seed).normal(size=field.force.shape)
        write_field(str(path), field)
    return path


def _read_as_bits(kind, path):
    """What the reader of ``kind`` reads from ``path``, in comparable form."""
    if kind == "track":
        return _read_bits(path)
    field = read_field(str(path))
    return field.spec, field.force.tobytes()


@pytest.mark.parametrize("kind", ["track", "field"])
def test_a_plain_file_reaches_numpy_as_its_absolute_path(tmp_path, monkeypatch, kind):
    import fipp.io

    _plain_file(tmp_path, kind, "plain.txt")
    monkeypatch.chdir(tmp_path)
    calls = _spy_on_loadtxt(monkeypatch)
    scans = _spy_on_scan(monkeypatch)
    read = _read_as_bits(kind, "plain.txt")
    assert calls == [os.path.join(os.getcwd(), "plain.txt")]
    assert not scans
    monkeypatch.setattr(fipp.io, "_read_plain", lambda fh, dtype, is_row: None)
    assert read == _read_as_bits(kind, "plain.txt")


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
@pytest.mark.parametrize("kind", ["track", "field"])
def test_a_plain_file_with_a_packed_suffix_reads_as_the_scanner_reads_it(
    tmp_path, monkeypatch, kind, suffix
):
    # numpy would open the name through a decompressor; lzma's error on a
    # plain file is not even an OSError.
    packed = _plain_file(tmp_path, kind, "plain" + suffix)
    plain = _plain_file(tmp_path, kind, "plain.txt")
    calls = _spy_on_loadtxt(monkeypatch)
    scans = _spy_on_scan(monkeypatch)
    assert _read_as_bits(kind, packed) == _read_as_bits(kind, plain)
    assert _paths(calls) == [str(plain)]
    assert len(scans) == 1


@pytest.mark.parametrize(
    "swap", ["replaced", "removed_beside_a_gzip_file", "removed_beside_a_plain_xz_name"]
)
@pytest.mark.parametrize("kind", ["track", "field"])
def test_a_file_swapped_before_numpy_opens_it_reads_as_checked(
    tmp_path, monkeypatch, kind, swap
):
    import gzip

    path = _plain_file(tmp_path, kind, "plain.txt")
    checked = _read_as_bits(kind, path)
    other = _plain_file(tmp_path, kind, "other.txt", seed=5)
    assert _read_as_bits(kind, other) != checked
    loadtxt, swapped = np.loadtxt, []

    def swap_then_load(fname, *args, **kwargs):
        if isinstance(fname, str) and not swapped:
            swapped.append(fname)
            if swap == "replaced":
                os.replace(other, path)
            else:  # numpy then tries the names beside the path
                os.remove(path)
                if swap == "removed_beside_a_gzip_file":
                    pathlib.Path(f"{path}.gz").write_bytes(gzip.compress(other.read_bytes()))
                else:
                    os.replace(other, f"{path}.xz")
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", swap_then_load)
    scans = _spy_on_scan(monkeypatch)
    assert _read_as_bits(kind, path) == checked
    assert swapped == [str(path)]
    assert len(scans) == 1


@pytest.mark.skipif(os.name == "nt", reason="a file name with ':' needs POSIX")
@pytest.mark.parametrize("kind", ["track", "field"])
def test_a_relative_path_that_looks_like_a_url_is_never_fetched(tmp_path, monkeypatch, kind):
    import urllib.request

    (tmp_path / "http:" / "x").mkdir(parents=True)
    path = _plain_file(tmp_path / "http:" / "x", kind, "plain.txt")
    want = _read_as_bits(kind, path)
    fetched = []

    def no_fetch(url, *args, **kwargs):
        fetched.append(url)
        raise AssertionError(f"fetched {url}")

    monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
    monkeypatch.chdir(tmp_path)
    calls = _spy_on_loadtxt(monkeypatch)
    scans = _spy_on_scan(monkeypatch)
    assert _read_as_bits(kind, "http://x/plain.txt") == want
    assert not fetched
    assert calls == [os.path.join(os.getcwd(), "http://x/plain.txt")]
    assert not scans


def test_repeats_by_one_stable_sort_of_the_ids_match_the_two_key_sort():
    import fipp.io

    # read_track_log finds an id repeated within a run of equal timestamps
    # by one stable argsort of the ids; the two-key lexsort of (run, id) is
    # the reference. Timestamps also go backwards, so equal ones can come
    # back in a later run.
    rng = np.random.default_rng(29)
    for _ in range(3000):
        n = int(rng.integers(0, 40))
        t = np.round(np.cumsum(rng.choice([0.0, 0.0, 0.1, -0.1], size=n)), 6)
        ids = rng.integers(-3, 4, size=n)
        starts = np.ones(n, dtype=bool)
        starts[1:] = t[1:] != t[:-1]
        runs = np.cumsum(starts)
        order = np.lexsort((ids, runs))
        same = (runs[order[1:]] == runs[order[:-1]]) & (ids[order[1:]] == ids[order[:-1]])
        want = np.zeros(n, dtype=bool)
        want[order[1:][same]] = True
        got = fipp.io._repeats(np.argsort(ids, kind="stable"), ids, runs)
        assert got.tolist() == want.tolist()


def test_write_field_returns_the_magnitudes_it_writes(tmp_path):
    field = FlowField(GridSpec(Vec2(-1.5, 2.0), 0.25, 7, 5))
    field.force[:] = np.random.default_rng(7).normal(size=field.force.shape)
    field.force[2, 3] = (1e308, 1e308)  # a magnitude past the largest float
    path = tmp_path / "field.txt"
    mag = write_field(str(path), field)
    assert mag.shape == (5, 7)
    assert mag.tobytes() == force_magnitude(field.force).tobytes()
    column = [float(line.rsplit(",", 1)[1]) for line in path.read_text().splitlines()[2:]]
    assert mag.ravel().tolist() == column


def test_field_read_rejects_malformed_meta(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# grid 0.0 0.0 0.5 2\n")
    with pytest.raises(InputFormatError, match="malformed grid meta"):
        read_field(str(path))


@pytest.mark.parametrize("read", [read_track_log, read_field])
@pytest.mark.parametrize(
    "name, error", [("missing.txt", FileNotFoundError), ("somedir", IsADirectoryError)]
)
def test_a_reader_raises_the_oserror_of_a_path_it_cannot_open(tmp_path, read, name, error):
    (tmp_path / "somedir").mkdir()
    path = str(tmp_path / name)
    with pytest.raises(error) as exc:
        read(path)
    assert exc.value.filename == path


# ---------------------------------------------------------------------------
# plan exports
# ---------------------------------------------------------------------------


def test_write_plan_rows_and_totals(tmp_path):
    spec = GridSpec(Vec2(0.0, 0.0), 1.0, 5, 5)
    field = FlowField(spec)
    params = CostParams()
    result = plan(field, Vec2(0.5, 0.5), Vec2(4.5, 4.5), params)
    path = tmp_path / "plan.csv"
    write_plan(str(path), result)
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


def test_write_plan_that_fails_midway_leaves_no_file(tmp_path):
    spec = GridSpec(Vec2(0.0, 0.0), 1.0, 5, 5)
    result = plan(FlowField(spec), Vec2(0.5, 0.5), Vec2(4.5, 4.5), CostParams())
    result.waypoints[-1] = None  # the last row cannot be formatted
    path = tmp_path / "plan.txt"
    with pytest.raises(AttributeError):
        write_plan(str(path), result)
    assert not path.exists()


def test_write_plan_step_costs_sum_to_the_totals(tmp_path):
    rng = np.random.default_rng(12)
    spec = GridSpec(Vec2(0.0, 0.0), 0.5, 16, 12)
    field = FlowField(spec)
    field.force[:] = rng.normal(0.0, 1.0, size=field.force.shape)
    params = CostParams(lambda_flow=2.0)
    result = plan(field, spec.cell_center(1, 2), spec.cell_center(14, 10), params)
    path = tmp_path / "plan.txt"
    write_plan(str(path), result)
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
    # json.loads reads a repr float back exactly, so the lines give back the
    # log bit for bit.
    sc = generate_scenario("single_flow", 8, seed=2)
    log = run_episode(sc, "tr", max_t=3.0)
    path = tmp_path / "episode.jsonl"
    write_episode_jsonl(str(path), log)
    meta, *steps, outcome = map(json.loads, path.read_text().splitlines())
    assert meta == {
        "scenario": sc.to_dict(), "planner": "tr", "sim_dt": SIM_DT, "max_t": log.max_t,
    }
    records = [
        StepRecord(d["t"], *d["robot"], TrackFrame.from_rows(d["t"], d["peds"])) for d in steps
    ]
    assert records == log.records
    assert outcome == {"outcome": log.outcome}


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["t", "robot", "pedestrian"])
def test_writers_reject_a_non_finite_value_naming_the_step(tmp_path, where, bad):
    # Neither file could be read back: NaN is not JSON, and the track-log
    # reader rejects non-finite rows.
    log = run_episode(generate_scenario("chaotic", 3, seed=1), "tr", max_t=1.0)
    rec = log.records[4]
    if where == "t":
        rec = dataclasses.replace(rec, t=bad, peds=TrackFrame(bad, rec.peds.ids, rec.peds.state))
    elif where == "robot":
        rec = dataclasses.replace(rec, robot_vy=np.float64(bad))
    else:
        state = rec.peds.state.copy()
        state[1, 2] = bad
        rec = dataclasses.replace(rec, peds=TrackFrame(rec.t, rec.peds.ids, state))
    log.records[4] = rec
    # No cut-off file is left behind, not even one that was there before.
    (tmp_path / "episode.jsonl").write_text("old\n")
    with pytest.raises(ValueError, match=r"^step 4 \(t="):
        write_episode_jsonl(str(tmp_path / "episode.jsonl"), log, str(tmp_path / "tracks.txt"))
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match=r"^step 4 \(t="):
        write_episode_jsonl(str(tmp_path / "episode.jsonl"), log)
    assert list(tmp_path.iterdir()) == []
    if where != "robot":
        with pytest.raises(ValueError, match=r"^step 4 \(t="):
            write_track_log(str(tmp_path / "alone.txt"), [r.peds for r in log.records])
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# writers against the reference writers
# ---------------------------------------------------------------------------

# Floats whose repr is easy to get wrong by hand: signed zero, subnormals,
# the smallest normal, powers of ten repr writes with an exponent, the
# largest finite double.
_EDGE_FLOATS = (
    -0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e22, -1e22, 1e16, 0.1,
    1.7976931348623157e308,
)
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
_IDS = st.one_of(
    st.sampled_from((-(2**63), 2**63 - 1, 0, -1)), st.integers(-(2**63), 2**63 - 1)
)
_STEPS = st.lists(
    st.tuples(
        _FLOATS,
        st.tuples(_FLOATS, _FLOATS, _FLOATS, _FLOATS),
        st.lists(st.tuples(_IDS, _FLOATS, _FLOATS, _FLOATS, _FLOATS),
                 max_size=6, unique_by=lambda row: row[0]),
    ),
    max_size=5,
)
_SCENARIO = generate_scenario("chaotic", 2, seed=1)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=_STEPS)
@example(steps=[(0.0, (0.0, 0.0, 0.0, 0.0), [])])
@example(steps=[
    (1e22, (-0.0, 5e-324, 1e22, -1e22),
     [(-(2**63), -0.0, 5e-324, 1e22, 0.1), (2**63 - 1, 0.0, -2.5e-320, -1e22, 1e16)]),
    (0.1, (1.0, 2.0, 0.0, 0.0), []),
])
def test_writers_match_the_reference_writers_byte_for_byte(tmp_path, steps):
    # The robot fields are numpy float64, as the simulator makes them.
    records = [
        StepRecord(t, *map(np.float64, robot), TrackFrame.from_rows(t, rows))
        for t, robot, rows in steps
    ]
    frames = [rec.peds for rec in records]
    episode, tracks, alone = (tmp_path / name for name in ("e.jsonl", "t.txt", "a.txt"))
    write_episode_jsonl(str(episode), EpisodeLog(_SCENARIO, "tr", 1.0, records, "timeout"),
                        str(tracks))
    write_track_log(str(alone), frames)
    assert tracks.read_text() == track_log_reference(frames)
    assert alone.read_text() == track_log_reference(frames)
    lines = episode.read_text().splitlines()
    assert lines[1:-1] == [episode_step_line_reference(rec) for rec in records]


# ---------------------------------------------------------------------------
# json helper
# ---------------------------------------------------------------------------


def test_write_json_that_fails_midway_leaves_no_file(tmp_path):
    # A set is not JSON: json.dump raises after writing the keys before it.
    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        write_json(str(path), {"a": 1, "b": {1}})
    assert not path.exists()


def test_a_writer_leaves_a_path_it_cannot_open_as_it_was(tmp_path):
    # A symlink to itself cannot be opened; the link stays.
    path = tmp_path / "loop.json"
    path.symlink_to(path)
    with pytest.raises(OSError):
        write_track_log(str(path), [])
    assert path.is_symlink()


def test_write_json_sorted_with_trailing_newline(tmp_path):
    path = tmp_path / "out.json"
    write_json(str(path), {"zeta": 1, "alpha": {"b": 2, "a": 3}})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"zeta"')
    assert json.loads(text) == {"zeta": 1, "alpha": {"b": 2, "a": 3}}


# ---------------------------------------------------------------------------
# bytes that are not UTF-8
# ---------------------------------------------------------------------------


def test_track_log_byte_that_is_not_utf8_is_an_error_naming_its_line(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_bytes(
        b"# t,id,x,y,vx,vy \xff\n0.0,1,1.0,1.0,0.5,0.0\n0.1,1,1.05,1.0\xff,0.5,0.0\n"
    )
    # The comment line is skipped as any comment is; the data row fails.
    with pytest.raises(InputFormatError) as exc:
        read_track_log(str(path))
    assert str(exc.value).startswith(f"{path}:3: ")


def test_field_byte_that_is_not_utf8_is_an_error_naming_its_line(tmp_path):
    path = tmp_path / "field.txt"
    write_field(str(path), FlowField(GridSpec(Vec2(0.0, 0.0), 0.5, 2, 2)))
    lines = path.read_bytes().splitlines()
    lines[4] = lines[4].replace(b",0.0,", b",\xff,", 1)
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(InputFormatError) as exc:
        read_field(str(path))
    assert str(exc.value).startswith(f"{path}:5: ")

"""Fuzzing of the track-log and field-export readers.

On mutated writer output the package readers and the per-line reference
readers in oracles.py must agree: the same frames or forces bit for bit, or
an error on the same line. On any text at all a reader returns or raises
InputFormatError, never anything else.
"""

from __future__ import annotations

import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fipp import FlowField, GridSpec, TrackLog, Vec2
from fipp.flowfield import V_PED_MAX
from fipp.io import (
    InputFormatError,
    read_field,
    read_track_log,
    write_field,
    write_track_log,
)
from oracles import read_field_reference, read_track_log_reference
from tracklogs import columns, one_frame

FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
# A warning from the readers, such as numpy's on empty input or on an
# overflowing square, fails the test.
pytestmark = pytest.mark.filterwarnings("error")

# Field values a mutation writes: non-finite and overflowing numbers, the
# int64 edges, numbers Python reads but the readers' grammar does not ('_'
# separators, non-ASCII digits), padding, signs, a byte that is not UTF-8
# (written through surrogateescape) and plain garbage.
PAYLOADS = (
    "nan", "-inf", "inf", "NaN", "1e400", "-0.0", "0", "7", "+7", "007", "1.5", "-2",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "-9223372036854775809", "1_0", "1_000.5", "٣", "1٣", " 2.5 ", "\t3", "\x1c1",
    "\xa01", "1e-320", "", " ", "x", "#", "0x10", "1.0e", "\udcff", "1.\udcff5",
)
# Velocity pairs at and around the speed cap, where the cap test's rounding
# decides.
NEAR_CAP = (
    ("3.0", "0.0"), ("3.0000000000000004", "0.0"), ("0.0", "-3.0"), ("1.8", "2.4"),
    ("2.1213203435596424", "2.1213203435596424"), ("2.121320343559643", "2.121320343559643"),
    ("-2.9999999999999996", "0.0"), ("1e200", "0.0"),
)
# Whitespace a mutation appends to a line: stripped by the readers, but
# it takes the file out of the one-pass read, to the block scanner.
TRAILING = (" ", "\t", "\x1c", "\xa0")
MUTATIONS = st.tuples(
    st.sampled_from(
        ("drop", "extra", "swap", "replace", "underscore", "hash", "blank", "duplicate",
         "meta", "near_cap", "trail")
    ),
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.sampled_from(PAYLOADS),
)
NEWLINES = st.sampled_from(("\n", "\r\n", "\r"))


def _mutate(lines: list[str], mutations) -> list[str]:
    lines = list(lines)
    for kind, a, b, payload in mutations:
        k = a % len(lines)
        fields = lines[k].split(",")
        f = b % len(fields)
        if kind == "drop":
            del fields[f]
        elif kind == "extra":
            fields.insert(f, payload)
        elif kind == "replace":
            fields[f] = payload
        elif kind == "underscore":
            text = fields[f]
            fields[f] = text[: len(text) // 2] + "_" + text[len(text) // 2:]
        elif kind == "near_cap":
            fields[-2:] = NEAR_CAP[b % len(NEAR_CAP)]
        elif kind == "swap":
            m = b % len(lines)
            lines[k], lines[m] = lines[m], lines[k]
            continue
        elif kind == "hash":
            pos = b % (len(lines[k]) + 1)
            lines[k] = lines[k][:pos] + "#" + lines[k][pos:]
            continue
        elif kind == "trail":
            lines[k] += TRAILING[b % len(TRAILING)]
            continue
        elif kind == "blank":
            lines.insert(k, " " * (b % 3))
            continue
        elif kind == "duplicate":
            lines.insert(k, lines[k])
            continue
        else:  # meta
            lines.insert(k, "# grid 0.0 0.0 0.5 2 1")
            continue
        lines[k] = ",".join(fields)
    return lines


def _write(path, lines: list[str], newline: str, final_newline: bool = True) -> None:
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        fh.write(newline.join(lines) + (newline if final_newline else ""))


def _line_of(exc: InputFormatError, path: str) -> int | None:
    match = re.match(re.escape(path) + r":(\d+): ", str(exc))
    return int(match.group(1)) if match else None


def _bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def _log(seed: int) -> TrackLog:
    rng = np.random.default_rng(seed)
    frames = []
    for k in range(int(rng.integers(1, 4))):
        n = int(rng.integers(1, 4))
        ids = rng.choice(6, size=n, replace=False)
        speed = rng.uniform(0.0, 2.5, size=n)
        heading = rng.uniform(-np.pi, np.pi, size=n)
        state = np.column_stack(
            [rng.normal(0.0, 5.0, size=(n, 2)), speed * np.cos(heading), speed * np.sin(heading)]
        )
        frames.append(TrackLog([0.1 * k], [0], ids, state))
    return TrackLog.concat(frames)


def _field(seed: int) -> FlowField:
    rng = np.random.default_rng(seed)
    spec = GridSpec(
        Vec2(float(rng.normal()), float(rng.normal())), 0.5,
        int(rng.integers(1, 4)), int(rng.integers(1, 4)),
    )
    field = FlowField(spec)
    field.force[...] = rng.normal(size=field.force.shape) * rng.integers(0, 2, size=(1, 1, 2))
    return field


@FUZZ
@given(seed=st.integers(0, 2**32 - 1), mutations=st.lists(MUTATIONS, max_size=3), newline=NEWLINES)
def test_track_log_reader_matches_the_per_line_reference(tmp_path, seed, mutations, newline):
    path = str(tmp_path / "tracks.txt")
    write_track_log(path, _log(seed))
    with open(path) as fh:
        lines = fh.read().splitlines()
    _write(path, _mutate(lines, mutations), newline)
    expected = read_track_log_reference(path, V_PED_MAX)
    try:
        log = read_track_log(path)
    except InputFormatError as exc:
        assert expected == ("error", _line_of(exc, path)), str(exc)
        return
    assert isinstance(expected, list), expected
    want = TrackLog.concat(one_frame(t, rows) for t, rows in expected)
    assert columns(log) == columns(want)


@FUZZ
@given(
    seed=st.integers(0, 2**32 - 1),
    mutations=st.lists(MUTATIONS, max_size=3),
    newline=NEWLINES,
    final_newline=st.booleans(),
)
def test_field_reader_matches_the_per_line_reference(
    tmp_path, seed, mutations, newline, final_newline
):
    path = str(tmp_path / "field.txt")
    write_field(path, _field(seed))
    with open(path) as fh:
        lines = fh.read().splitlines()
    _write(path, _mutate(lines, mutations), newline, final_newline)
    _check_field_against_reference(path)


def _check_field_against_reference(path: str) -> None:
    """read_field gives the forces the per-line reference reads, bit for
    bit, or an error on the line the reference names."""
    expected = read_field_reference(path)
    try:
        field = read_field(path)
    except InputFormatError as exc:
        if expected[0] == "missing":
            assert str(exc) == f"{path}: cell ({expected[1][0]},{expected[1][1]}) missing"
        else:
            assert expected == ("error", _line_of(exc, path)), str(exc)
        return
    assert expected[0] not in ("error", "missing"), (expected, field.spec)
    (ox, oy, cs, w, h), forces = expected
    spec = field.spec
    assert _bits([spec.origin.x, spec.origin.y, spec.cell_size]) == _bits([ox, oy, cs])
    assert (spec.width, spec.height) == (w, h)
    assert field.force.tobytes() == _bits([v for pair in forces for v in pair])


def _on_row(k: int, edit):
    """An edit of an export's text that edits its line ``k`` (from 0)."""
    def on_text(text: str) -> str:
        lines = text.split("\n")
        lines[k] = edit(lines[k])
        return "\n".join(lines)
    return on_text


def _set_fx(row: str, value: str) -> str:
    fields = row.split(",")
    fields[4] = value
    return ",".join(fields)


# Edits of the text of a 2x2 export (meta line, header, rows on lines 3-6)
# at the edge of what the reader takes as a plain file, which it parses in
# one pass; the block scanner reads every other file.
BOUNDARY = {
    "as_written": lambda text: text,
    "no_final_newline": lambda text: text[:-1],
    "trailing_blank_line": lambda text: text + "\n",
    "five_commas": _on_row(2, lambda row: row.rsplit(",", 1)[0]),
    "seven_commas": _on_row(3, lambda row: row + ",0.0"),
    "trailing_x1c": _on_row(2, lambda row: row + "\x1c"),
    "trailing_nbsp": _on_row(4, lambda row: row + "\xa0"),
    "non_ascii_cx": _on_row(3, lambda row: row.replace(",0.75,", ",\u0663,", 1)),
    "euro_cx": _on_row(3, lambda row: row.replace(",0.75,", ",\u20ac,", 1)),
    "not_utf8_cx": _on_row(3, lambda row: row.replace(",0.75,", ",\udcff,", 1)),
    "second_grid_line": _on_row(2, lambda row: "# grid 0.0 0.0 0.5 2 2\n" + row),
    "nan_fx": _on_row(3, lambda row: _set_fx(row, "nan")),
    "commented_row": _on_row(2, lambda row: "#" + row),
}


@pytest.mark.parametrize("case", list(BOUNDARY))
def test_field_reader_matches_the_reference_at_the_layout_boundary(tmp_path, case):
    path = tmp_path / "field.txt"
    field = FlowField(GridSpec(Vec2(0.0, 0.0), 0.5, 2, 2))
    field.force[...] = np.arange(8.0).reshape(2, 2, 2) - 3.5
    write_field(str(path), field)
    path.write_text(BOUNDARY[case](path.read_text()), encoding="utf-8", errors="surrogateescape")
    _check_field_against_reference(str(path))


# Lines for the any-text test: free text, rows of plausible and broken
# numbers, and grid meta lines of any size, so both readers get past their
# first checks.
_CELL = st.sampled_from(PAYLOADS + ("0.5", "1", "2", "-1", "3.0", "0.25"))
_ANY_LINE = st.one_of(
    st.text(max_size=24),
    st.lists(_CELL, max_size=8).map(",".join),
    st.tuples(_CELL, _CELL, _CELL, st.integers(-2, 10**30), st.integers(-2, 10**30)).map(
        lambda g: "# grid {} {} {} {} {}".format(*g)
    ),
)


@FUZZ
@given(lines=st.lists(_ANY_LINE, max_size=8), newline=NEWLINES)
def test_any_text_parses_or_is_an_input_format_error(tmp_path, lines, newline):
    path = tmp_path / "input.txt"
    _write(path, lines, newline)
    for reader in (read_track_log, read_field):
        try:
            reader(str(path))
        except InputFormatError:
            pass


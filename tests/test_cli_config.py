"""The CLI's settings table and config-file loader: each command keeps its
flags and their help, every field of the model's parameter objects is a
setting, every setting reaches the configuration through each
config-file spelling and through its flag on every command that takes it,
an unreadable config file is an input error naming it, and no config text
escapes the loader as anything but InputFormatError."""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fipp import cli
from fipp.flowfield import FlowParams
from fipp.io import InputFormatError
from fipp.metrics import DEFAULT_THRESHOLD
from fipp.planner import CostParams
from fipp.sim import N_PEDS_RANGE, SCENARIO_KINDS

HELP = {
    "--config": "JSON config file; explicit flags override it",
    "--seed": "base random seed",
    "--out": "output directory",
    "--cell-size": "grid cell size (m)",
    "--h": "influence radius (m)",
    "--xi": "self-propulsion coefficient (default 0.5)",
    "--lambda": "flow-cost weight",
    "--threshold": "social violation distance (default 0.5 m)",
    "--peds": "pedestrian count (default: seeded draw from 25-50)",
    "--planner": "planner to run",
    "--scenario": "scenario kind",
    "--dt": "advection timestep (s)",
    "--steps": "advection step count",
    "--kinds": "comma-separated scenario kinds (default chaotic,single_flow,double_flow,"
               "intersection)",
    "--seeds": "seed list: N (=1..N), A-B (inclusive) or comma-separated",
    "--jobs": "parallel episode workers",
    "--truth": "track log to compare against, instead of --start: each pedestrian starts "
               "from its first observation",
    "--tracks-out": "also write the episode's pedestrian track log here",
}
# Flags whose help differs between the commands that take them.
COMMAND_HELP = {
    ("predict", "--start"): "start point; repeatable",
    ("plan", "--start"): None,
    ("plan", "--goal"): None,
}
# Each command's flags besides --help.
FLAGS = {
    "extract": {"--config", "--out", "--h", "--xi", "--cell-size"},
    "predict": {"--config", "--out", "--start", "--dt", "--steps", "--truth"},
    "plan": {"--config", "--out", "--start", "--goal", "--lambda"},
    "simulate": {
        "--config", "--seed", "--out", "--scenario", "--peds", "--planner", "--lambda", "--h",
        "--xi", "--cell-size", "--threshold", "--tracks-out",
    },
    "bench": {
        "--config", "--out", "--peds", "--lambda", "--h", "--xi", "--cell-size", "--threshold",
        "--kinds", "--seeds", "--jobs",
    },
}
DEFAULTS = {
    "seed": 0, "out": "out", "cell_size": 0.5, "h": 1.0, "xi": 0.5, "lambda_flow": 2.0,
    "threshold": 0.5, "peds": None, "planner": "fipp", "scenario": "single_flow", "dt": 0.1,
    "steps": 100, "kinds": "chaotic,single_flow,double_flow,intersection", "seeds": "1-20",
    "jobs": 1,
}
# A value other than the default for each setting, as written on the command line.
VALUES = {
    "seed": "7", "out": "elsewhere", "cell_size": "0.25", "h": "1.5", "xi": "0.25",
    "lambda_flow": "3.5", "threshold": "0.75", "peds": "9", "planner": "tr",
    "scenario": "chaotic", "dt": "0.2", "steps": "7", "kinds": "chaotic", "seeds": "3",
    "jobs": "2",
}
# What each command needs besides its settings to parse.
REQUIRED = {
    "extract": ["tracks.csv"],
    "predict": ["field.txt"],
    "plan": ["field.txt", "--start", "1,1", "--goal", "2,2"],
    "simulate": [],
    "bench": [],
}


def _flags(command: str) -> dict[str, argparse.Action]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.option_strings[0]: a
        for a in sub.choices[command]._actions
        if a.option_strings and a.dest != "help"
    }


def _config_spellings(key: str) -> set[str]:
    """The config-file names of setting ``key``: each name that, with '-'
    read as '_', is the key, and 'lambda' for lambda_flow."""
    names = {key, key.replace("_", "-")}
    return names | {"lambda"} if key == "lambda_flow" else names


def _resolve(command: str, config_path, *flags: str) -> dict:
    argv = [command, *REQUIRED[command], *flags]
    if config_path is not None:
        argv += ["--config", str(config_path)]
    return cli.resolve_config(cli.build_parser().parse_args(argv))


def _parsed(key: str):
    return cli.SETTINGS[key].type(VALUES[key])


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_command_keeps_its_flags_and_their_help(command):
    flags = _flags(command)
    assert {flag: action.help for flag, action in flags.items()} == {
        flag: COMMAND_HELP.get((command, flag), HELP.get(flag)) for flag in FLAGS[command]
    }
    if command == "simulate":
        assert flags["--scenario"].choices == SCENARIO_KINDS
        assert flags["--planner"].choices == ("fipp", "tr")


def test_simulate_help_shows_the_defaults_where_they_are_defined(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # no help line wraps
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--help"])
    text = capsys.readouterr().out
    assert f"self-propulsion coefficient (default {FlowParams().xi})" in text
    assert f"social violation distance (default {DEFAULT_THRESHOLD} m)" in text
    assert "pedestrian count (default: seeded draw from {}-{})".format(*N_PEDS_RANGE) in text


def test_the_table_keeps_every_setting_and_its_default():
    assert cli.DEFAULTS == DEFAULTS
    assert {key: s.default for key, s in cli.SETTINGS.items()} == DEFAULTS
    # Every setting is some command's flag.
    taken = set().union(*FLAGS.values())
    assert {f"--{s.flag}" for s in cli.SETTINGS.values()} <= taken


@pytest.mark.parametrize("params", [FlowParams, CostParams])
def test_every_model_parameter_is_a_setting(params):
    # A parameter no setting reaches could be set only by tests: no run,
    # config file or manifest would show it.
    assert {f.name for f in dataclasses.fields(params)} <= set(cli.SETTINGS)


@pytest.mark.parametrize("key", sorted(cli.SETTINGS))
def test_each_config_spelling_of_a_setting_is_accepted(tmp_path, key):
    cfg_file = tmp_path / "cfg.json"
    spellings = _config_spellings(key)
    assert cli.SETTINGS[key].flag in spellings
    for name in sorted(spellings):
        cfg_file.write_text(json.dumps({name: VALUES[key]}))
        cfg = _resolve("bench", cfg_file)
        assert cfg[key] == _parsed(key), name
        assert type(cfg[key]) is cli.SETTINGS[key].type
    for name in (f"--{key}", key.upper(), f"{key}_", f"{key}-"):
        cfg_file.write_text(json.dumps({name: VALUES[key]}))
        with pytest.raises(InputFormatError, match=f"unknown config key {name!r}"):
            _resolve("bench", cfg_file)


@pytest.mark.parametrize(
    "key,command",
    [
        (key, command)
        for key, setting in sorted(cli.SETTINGS.items())
        for command in sorted(FLAGS)
        if f"--{setting.flag}" in FLAGS[command]
    ],
)
def test_each_setting_is_accepted_by_its_flag(key, command):
    cfg = _resolve(command, None, f"--{cli.SETTINGS[key].flag}", VALUES[key])
    assert cfg[key] == _parsed(key)
    assert type(cfg[key]) is cli.SETTINGS[key].type


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_text("[" * 100_000), "maximum recursion depth exceeded"),
        (lambda path: path.write_text('{"seed": 1\n"h": 2}'),
         "Expecting ',' delimiter: line 2 column 1 (char 11)"),
        (lambda path: path.write_bytes(b'{"seed": "\xff"}'),
         "'utf-8' codec can't decode byte 0xff in position 10"),
        (lambda path: None, "No such file or directory"),
    ],
    ids=["directory", "deep-nesting", "syntax", "not-utf8", "missing"],
)
def test_an_unreadable_config_file_is_an_input_error_naming_it(tmp_path, capsys, make, message):
    cfg_path = tmp_path / "cfg.json"
    make(cfg_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: {message}"), err
    assert not out.exists()


_NAMES = sorted(set().union(*map(_config_spellings, cli.SETTINGS)))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=6,
)
_CONFIG_BYTES = st.one_of(
    st.binary(max_size=40),
    st.text(max_size=40).map(str.encode),
    _JSON.map(lambda v: json.dumps(v).encode()),
    st.dictionaries(st.sampled_from(_NAMES) | st.text(max_size=8), _JSON, max_size=4).map(
        lambda d: json.dumps(d).encode()
    ),
    st.dictionaries(st.sampled_from(_NAMES), st.sampled_from(sorted(VALUES.values())),
                    max_size=4).map(lambda d: json.dumps(d).encode()),
    st.integers(1, 3000).map(lambda n: ('{"seed": ' + "[" * n + "]" * n + "}").encode()),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_CONFIG_BYTES)
def test_any_config_file_resolves_or_is_an_input_format_error(tmp_path, data):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(data)
    try:
        cfg = _resolve("bench", cfg_path)
    except InputFormatError as exc:
        assert str(exc).startswith(f"{cfg_path}: ")
        return
    for key, setting in cli.SETTINGS.items():
        if cfg[key] is None:
            assert setting.default is None, key
        else:
            assert type(cfg[key]) is setting.type, key

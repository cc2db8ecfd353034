"""The repository's tooling: CI installs numpy, pytest and hypothesis at
the versions the package's ``test`` extra pins (the golden digests are
recorded with that numpy, and the derandomized property tests count cases
among the examples drawn, which depend on the hypothesis version), and
every committed ``BENCH_*.json`` record is whole."""

from __future__ import annotations

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_PINNED = {"numpy", "pytest", "hypothesis"}


def _pins(specs) -> dict[str, str]:
    """The numpy, pytest and hypothesis versions among ``name==version`` specs."""
    return {
        name: version
        for name, version in (spec.split("==", 1) for spec in specs)
        if name in _PINNED
    }


def test_ci_installs_the_versions_the_test_extra_pins():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    ci = re.findall(r'"([\w.-]+==[^"]+)"', workflow)
    assert set(_pins(extra)) == _PINNED
    assert _pins(ci) == _pins(extra)


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name
)
def test_every_bench_record_parses_and_says_what_it_measured(path):
    # A speed claim cites a committed BENCH record: what it claims, the
    # command it ran, the host, the order of the runs, and the two sides.
    record = json.loads(path.read_text(encoding="utf-8"))
    assert {"claim", "command", "host", "order", "parent", "change"} <= set(record)

"""CI installs numpy, pytest and hypothesis at the versions the package's
``test`` extra pins: the golden digests are recorded with that numpy, and
the derandomized property tests count cases among the examples drawn, which
depend on the hypothesis version."""

from __future__ import annotations

import pathlib
import re

import pytest

tomllib = pytest.importorskip("tomllib")

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
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    ci = re.findall(r'"([\w.-]+==[^"]+)"', workflow)
    assert set(_pins(extra)) == _PINNED
    assert _pins(ci) == _pins(extra)

"""CI installs pytest and hypothesis at the versions the package's ``test``
extra pins: the derandomized property tests count cases among the examples
drawn, and which examples are drawn depends on the hypothesis version."""

from __future__ import annotations

import pathlib
import re

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _pins(specs) -> dict[str, str]:
    """The pytest and hypothesis versions among ``name==version`` specs."""
    return {
        name: version
        for name, version in (spec.split("==", 1) for spec in specs)
        if name in ("pytest", "hypothesis")
    }


def test_ci_installs_the_pytest_and_hypothesis_the_test_extra_pins():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    ci = re.findall(r'"([\w.-]+==[^"]+)"', workflow)
    assert set(_pins(extra)) == {"pytest", "hypothesis"}
    assert _pins(ci) == _pins(extra)

"""Guard for oracles.py: the reference code must stay independent of the
package it checks, or a shared bug could pass on both sides."""

from __future__ import annotations

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import on line {node.lineno}"
            imported.append(node.module or "")
    assert imported, "no imports found; is the parse looking at the right file?"
    roots = {name.split(".")[0] for name in imported}
    assert "fipp" not in roots
    assert "importlib" not in roots
    assert all(
        not (isinstance(node, ast.Name) and node.id == "__import__") for node in ast.walk(tree)
    )

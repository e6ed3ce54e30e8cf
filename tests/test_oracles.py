"""The oracles stay a second route: they import nothing from the package."""

import ast
from pathlib import Path


def test_oracles_import_no_prunekit_module():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "found no imports at all; the scan is broken"
    assert not [m for m in imported
                if m.startswith(".") or m.split(".")[0] == "prunekit"], imported

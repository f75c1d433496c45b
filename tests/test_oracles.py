"""The reference computations in oracles.py stay independent of the package:
they never import it, so no package kernel can vouch for itself."""

import ast
from pathlib import Path

import pytest


def _package_imports(source: str) -> list[str]:
    """The modules of pairrank that source imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append(node.module)
    return [m for m in found if m.split(".")[0] == "pairrank"]


def test_oracles_do_not_import_pairrank():
    source = (Path(__file__).parent / "oracles.py").read_text()
    assert _package_imports(source) == []


@pytest.mark.parametrize("line", ["import pairrank",
                                  "import numpy, pairrank.linalg as la",
                                  "from pairrank import fit_bt",
                                  "from pairrank.linalg import _search",
                                  "def f():\n    import pairrank\n"])
def test_the_guard_sees_every_import_form(line):
    assert _package_imports(line)

"""Source hygiene: every name a qhm module imports is used in that module."""

import ast
from pathlib import Path

import pytest

from qhm import algebra

MODULES = sorted(Path(algebra.__file__).parent.glob("*.py"))


def unused_imports(source: str):
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # attribute chains such as np.fft.fft are rooted at a Name node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_name():
    src = "import math\nfrom typing import Dict, List\nx: List[int] = []\n"
    assert unused_imports(src) == [(1, "math"), (2, "Dict")]

"""Source hygiene: every name a qhm module imports is used in that module,
every function or class a qhm module defines is named somewhere else, and
every y-shift goes through Grid.y_roll."""

import ast
import re
from pathlib import Path

import pytest

from qhm import algebra

MODULES = sorted(Path(algebra.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


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


DEF = re.compile(r"^\s*(?:def|class)\s+(\w+)", re.M)


def unused_definitions(defining, sources):
    """Non-dunder names defined by `def` or `class` in the `defining` texts
    that no line of `sources` names (word match) except a definition."""
    names = {name for text in defining for name in DEF.findall(text)
             if not (name.startswith("__") and name.endswith("__"))}
    rest = "\n".join(line for text in sources for line in text.splitlines()
                     if not DEF.match(line))
    return sorted(name for name in names if not re.search(rf"\b{name}\b", rest))


def test_no_dead_definitions():
    sources = [path.read_text(encoding="utf-8")
               for top in ("src", "tests", "bench")
               for path in sorted((ROOT / top).rglob("*.py"))]
    defining = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unused_definitions(defining, sources) == []


def test_guard_sees_a_dead_definition():
    src = ("class Used:\n    def __init__(self):\n        pass\n\n"
           "    def gone(self):\n        return Used()\n\n"
           "def _helper():\n    pass\n")
    assert unused_definitions([src], [src]) == ["_helper", "gone"]


Y_AXES = {2, -1}  # the y-axis of a chain, and the last axis of any array


def y_rolls(source: str):
    """Lines of np.roll calls whose axis may be the y-axis: a literal 2 or
    -1, alone or in a tuple, or an axis that is not a literal."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "roll"):
            continue
        axis = next((kw.value for kw in node.keywords if kw.arg == "axis"),
                    node.args[2] if len(node.args) > 2 else None)
        if axis is None:  # a roll of the flattened array
            continue
        try:
            axes = ast.literal_eval(axis)
        except ValueError:
            lines.append(node.lineno)
            continue
        if Y_AXES & set(axes if isinstance(axes, tuple) else (axes,)):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_y_shifts_go_through_y_roll(path):
    # a[..., grid.y_roll(s)] is np.roll(a, s, axis=-1) as one cached gather
    assert y_rolls(path.read_text(encoding="utf-8")) == []


def test_guard_sees_a_y_roll():
    src = ("import numpy as np\n"
           "a = np.roll(b, 1, axis=2)\n"
           "a = np.roll(b, 1, -1)\n"
           "a = np.roll(b, 1, axis=(0, 1))\n"
           "a = np.roll(b, s, axis=(1, -1))\n"
           "a = np.roll(b, 1, axis=ax)\n"
           "a = np.roll(b, 1)\n")
    assert y_rolls(src) == [2, 3, 5, 6]

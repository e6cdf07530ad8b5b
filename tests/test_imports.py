"""Source hygiene: every name a qhm module imports is used in that module,
every function or class a qhm module defines is named somewhere else, the
commands enter every function of qhm, and every y-shift goes through
Grid.y_roll."""

import ast
import os
import re
import sys
from pathlib import Path

import pytest

from qhm import algebra, cli

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


# Functions that no command enters, each with the reason it stays.
BENCH_ONLY = {
    "yangmills.ym_value": "bench/workloads.py's ym-ladder takes YM with it",
    "cli._tamper": "bench/workloads.py's gate self-test sets "
                   "RunConfig.tamper_star",
}


def definitions(path: Path):
    """{(file, first line of its code object): "module.qualname"} of every
    def in a module; a decorated function's code starts at its first
    decorator."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[os.path.realpath(path), first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return out


def test_commands_enter_every_definition(tmp_path):
    # verify at refinement 9, solve --sweep at 9 and morita at its
    # refinement 8 for (c, su, sv) = (1, 1/4, 1/4), and the bare default
    # verify, the one run that reaches bimodule._no_rows: a function that
    # none of them enters serves only the tests, and lives with them
    cfg = tmp_path / "c.cfg"
    cfg.write_text("c = 1\nsu = 1/4\nsv = 1/4\nmorita.refinement = 8\n")
    runs = [["verify", "--config", str(cfg), "--refinement", "9"],
            ["solve", "--config", str(cfg), "--refinement", "9", "--sweep"],
            ["morita", "--config", str(cfg)],
            ["verify"]]
    # a memoized function is entered only on a key it has not seen
    for module in sys.modules.values():
        if module and module.__name__.startswith("qhm."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv + ["--out", str(tmp_path / str(i))])
                 for i, argv in enumerate(runs)]
    finally:
        sys.setprofile(old)
    assert codes == [0, 0, 0, 0]
    entered = {(os.path.realpath(f), line) for f, line in entered}
    defs = {k: v for path in MODULES for k, v in definitions(path).items()}
    assert sorted(name for key, name in defs.items()
                  if key not in entered) == sorted(BENCH_ONLY)


def test_definitions_name_each_def_by_its_code_start(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class A:\n    @property\n    def b(self):\n"
                    "        def c():\n            pass\n\n"
                    "def d():\n    pass\n")
    where = os.path.realpath(path)
    assert definitions(path) == {(where, 2): "mod.A.b", (where, 4): "mod.A.b.c",
                                 (where, 7): "mod.d"}


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

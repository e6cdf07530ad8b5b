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


@pytest.fixture(scope="module")
def command_traffic(tmp_path_factory):
    """verify at refinement 9, solve --sweep at 9 and morita at its
    refinement 8 for (c, su, sv) = (1, 1/4, 1/4), and the bare default
    verify, the one run that reaches bimodule._no_rows, under sys.settrace:
    the (file, first line) of every function entered, and the (file, line)
    of every line of src/qhm run."""
    tmp_path = tmp_path_factory.mktemp("traffic")
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
    ours = {os.path.realpath(path) for path in MODULES}
    traced = {}  # co_filename: whether it is a module of src/qhm
    entered, executed = set(), set()

    def lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))
        name = code.co_filename
        if name not in traced:
            traced[name] = os.path.realpath(name) in ours
        return lines if traced[name] else None

    old = sys.gettrace()
    sys.settrace(calls)
    try:
        codes = [cli.main(argv + ["--out", str(tmp_path / str(i))])
                 for i, argv in enumerate(runs)]
    finally:
        sys.settrace(old)
    assert codes == [0, 0, 0, 0]
    return ({(os.path.realpath(f), line) for f, line in entered},
            {(os.path.realpath(f), line) for f, line in executed})


def test_commands_enter_every_definition(command_traffic):
    # a function that none of the runs enters serves only the tests, and
    # lives with them
    entered, _ = command_traffic
    defs = {k: v for path in MODULES for k, v in definitions(path).items()}
    assert sorted(name for key, name in defs.items()
                  if key not in entered) == sorted(BENCH_ONLY)


def unexecuted_statements(path: Path, executed):
    """("module.qualname", text of its first line) of the first statement of
    each run of statements of a function body in which no line of
    `executed` ((file, line) pairs) falls, found in the blocks of the
    statements that ran; a run of raise statements alone is an error exit
    and not listed.  A function's docstring is no statement, and a nested
    def is a function of its own."""
    where = os.path.realpath(path)
    text = path.read_text(encoding="utf-8").splitlines()
    out = []

    def scan(name, body):
        ran = [any((where, line) in executed
                   for line in range(stmt.lineno, stmt.end_lineno + 1))
               for stmt in body]
        for i, stmt in enumerate(body):
            if ran[i]:
                if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    for block in ([getattr(stmt, f, []) for f in ("body", "orelse", "finalbody")]
                                  + [h.body for h in getattr(stmt, "handlers", [])]):
                        scan(name, block)
            elif i == 0 or ran[i - 1]:
                end = next((k for k in range(i, len(body)) if ran[k]), len(body))
                if not all(isinstance(s, ast.Raise) for s in body[i:end]):
                    out.append((name, text[stmt.lineno - 1].strip()))

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                docstring = ast.get_docstring(child) is not None
                if child.body[docstring:]:
                    scan(prefix + child.name, child.body[docstring:])
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return out


# Statements that no command runs, other than error exits, each with the
# reason it stays; the functions of BENCH_ONLY are not scanned.
UNEXECUTED = {
    ("algebra.bracket", 'return -1, "Z"'):
        "the bracket table's reversed pair; the commands pair W1 before W2",
    ("algebra.AlgebraElement.depth", "return 0"):
        "the zero element's depth: batches in the tests hold zero members",
    ("algebra.adjoint", "w = a.eval_window(q, 0, a.nxd, dxs=p * g.nx_unit, dys=0)"):
        "the E-flavor adjoint, one of the algebra identities the tests check",
    ("bimodule.inner_D", "return AlgebraElement.zero(D_FLAVOR, grid)"):
        "an empty vector; no command pairs one",
    ("bimodule.act_left", "return _no_rows(f, psi, depth=d)"):
        "a zero element or an empty vector; no command acts with one",
    ("bimodule.act_right", "return _no_rows(g, phi, w)"):
        "a zero element; no command acts with one (the second such return, "
        "for an annihilated batch, runs)",
    ("cli._parse_kv", "continue"):
        "config syntax: blank and comment lines",
    ("cli._floatval", "try:"):
        "config syntax: a tol.* key",
    ("cli.load_config", "cfg = replace(cfg, seed=overrides.seed)"):
        "the --seed option",
    ("cli.run_verify", "qq = _tamper(qq)"):
        "bench/workloads.py's gate self-test sets RunConfig.tamper_star",
    ("cli.run_verify", 'checks.append(_check("projection_conditions", str(exc), np.inf,'):
        "a broken projection is a failed check; the tests inject one",
    ("cli.run_verify", 'checks.append(_check("curvature_profiles", str(exc), np.inf,'):
        "a broken curvature is a failed check; the tests inject one",
    ("cli.main", 'print(f"config error: {exc}", file=sys.stderr)'): "exit 2",
    ("cli.main", "print(str(exc), file=sys.stderr)"): "exit 1, a failed stage",
    ("cli.main", 'print(f"grid error: {exc}", file=sys.stderr)'): "exit 2",
    ("cli.main", 'print(f"morita grid error: {exc}", file=sys.stderr)'): "exit 2",
    ("cli.main", 'print(f"output error: {exc}", file=sys.stderr)'): "exit 2",
    ("lattice.ScalarField.trimmed", "return self"):
        "an empty field",
    ("lattice.ScalarField.trimmed", "return ScalarField(self.grid, 0, self.chain[:, :0])"):
        "a field whose rows are all zero",
    ("lattice.ScalarField.__add__", "return ScalarField(self.grid, self.i0, self.chain[:depth + 1])"):
        "an empty right operand",
    ("lattice.spectral_dy", "return a.copy()"):
        "an empty array",
}


def test_commands_run_every_statement(command_traffic):
    # a statement that no command runs is an error exit or is listed
    _, executed = command_traffic
    found = [(name, text) for path in MODULES
             for name, text in unexecuted_statements(path, executed)
             if name not in BENCH_ONLY]
    assert sorted(found) == sorted(UNEXECUTED)


def test_guard_sees_an_unexecuted_statement(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text('def f(x):\n    """Doc."""\n    if x:\n        y = 1\n'
                    "        return y\n    if x is None:\n"
                    "        raise ValueError(x)\n    return 0\n\n\n"
                    "def g():\n    return 1\n")
    where = os.path.realpath(path)
    executed = {(where, line) for line in (3, 6, 8)}
    assert unexecuted_statements(path, executed) == [("mod.f", "y = 1"),
                                                     ("mod.g", "return 1")]


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

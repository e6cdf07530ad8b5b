"""In-process A/B of two checkouts on the benchmark's three operations.

Usage, from anywhere:

    python tests/ab.py TREE_A TREE_B [--pairs N]

Each tree's `src/qhm` is loaded under its own package name, and its own
`bench/workloads.py` (read as it is, with `qhm` bound to that package) gives
the operations.  After one untimed warm-up operation per tree and workload,
each pair runs one operation of every workload on both trees with the same
seed, B first in every other pair, and gates it as `bench/run.py` does: a
check outside the workload's known seed failures that fails, or an
exception, counts as a failed operation.  Both trees share one interpreter,
so drift of the machine between runs falls on both sides of a pair alike.

First it prints each tree's provenance: its path, its git commit when it
is the root of a checkout ("+modified" when `src/qhm` or `bench` differ
from that commit), and a sha256 over its `src/qhm/*.py`.  Then, for each
workload, each side's median and quartiles, the median of the per-pair
ratios B/A with a seeded 95% bootstrap interval (pairs resampled with
replacement), how many pairs B ran faster in, and the failed operations of
each side.  BLAS and OpenMP pools are pinned to one thread, as in
`bench/run.py`.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

# the modules bench/workloads.py imports from qhm
WORKLOAD_MODULES = ("calculus", "cli", "laplace", "lattice", "projection",
                    "yangmills")
# bootstrap draws behind each median ratio's interval
RESAMPLES = 2000


def load_tree(tree: str, name: str):
    """The `workloads` module of one checkout, with its `qhm` loaded as the
    package `name`."""
    src = Path(tree).resolve()
    for key in [k for k in sys.modules if k.split(".")[0] == name]:
        del sys.modules[key]  # modules of an earlier load under this name
    # qhm is a namespace package: no __init__ to run, only its directory
    pkg = types.ModuleType(name)
    pkg.__path__ = [str(src / "src" / "qhm")]
    sys.modules[name] = pkg
    for mod in WORKLOAD_MODULES:
        importlib.import_module(f"{name}.{mod}")
    spec = importlib.util.spec_from_file_location(
        f"{name}_workloads", src / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # `from qhm import ...` in workloads.py reads this tree's package
    saved = sys.modules.get("qhm")
    sys.modules["qhm"] = pkg
    try:
        spec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["qhm"]
        else:
            sys.modules["qhm"] = saved
    return workloads


def provenance(tree: str) -> str:
    """The tree's path, its git commit if it is the root of a checkout, and
    the sha256 of its src/qhm/*.py, names and contents in name order."""
    root = Path(tree).resolve()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qhm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def git(*args) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True)

    top = git("rev-parse", "--show-toplevel")
    commit = "not a checkout"
    if top.returncode == 0 and Path(top.stdout.strip()).resolve() == root:
        commit = git("rev-parse", "HEAD").stdout.strip() or "no commit"
        if git("diff", "--quiet", "HEAD", "--", "src/qhm", "bench").returncode:
            commit += "+modified"
    return f"{root}  git {commit}  src/qhm sha256 {digest.hexdigest()}"


def median_interval(ratios: List[float]) -> tuple:
    """95% percentile bootstrap interval of the median of `ratios`: the
    medians of RESAMPLES draws of len(ratios) pairs with replacement, from a
    generator seeded with 0, the 2.5% and 97.5% points of their order."""
    rng = random.Random(0)
    meds = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                  for _ in range(RESAMPLES))
    cut = RESAMPLES // 40
    return meds[cut], meds[RESAMPLES - 1 - cut]


def _run(workload, seed: int, scratch: str) -> tuple:
    """(seconds, passed) of one gated operation."""
    t0 = time.perf_counter()
    try:
        checks = workload.op(seed, scratch)
    except Exception:  # an exception fails every check, as in bench/run.py
        return time.perf_counter() - t0, False
    dt = time.perf_counter() - t0
    return dt, all(ok or name in workload.seed_failures for name, ok in checks)


def compare(tree_a: str, tree_b: str, pairs: int) -> Dict[str, dict]:
    """Per workload: the seconds of each side, pair by pair, and the
    failed operations of each side."""
    sides = [load_tree(tree_a, "qhm_ab_a").WORKLOADS,
             load_tree(tree_b, "qhm_ab_b").WORKLOADS]
    names = list(sides[0])
    out = {n: {"a": [], "b": [], "failed_a": 0, "failed_b": 0} for n in names}
    with tempfile.TemporaryDirectory() as scratch:
        for n in names:  # caches and lazy set-up, untimed
            for side in sides:
                _run(side[n], 0, scratch)
        for i in range(pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for n in names:
                for s in order:
                    dt, ok = _run(sides[s][n], i + 1, scratch)
                    key = "ab"[s]
                    out[n][key].append(dt)
                    out[n]["failed_" + key] += not ok
    return out


def _quartiles(xs: List[float]) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def report(results: Dict[str, dict]) -> str:
    lines = [f"{'workload':<16} {'A ms q1/med/q3':<22} {'B ms q1/med/q3':<22} "
             f"{'ratio B/A':>9} {'95% interval':>15} {'B faster':>9} "
             f"{'failed A/B':>10}"]
    for n, r in results.items():
        ratios = [b / a for a, b in zip(r["a"], r["b"])]
        wins = sum(b < a for a, b in zip(r["a"], r["b"]))
        qa, qb = (" / ".join(f"{1e3 * q:.2f}" for q in _quartiles(r[k]))
                  for k in "ab")
        lo, hi = median_interval(ratios)
        lines.append(f"{n:<16} {qa:<22} {qb:<22} "
                     f"{statistics.median(ratios):>9.3f} "
                     f"{f'[{lo:.3f}, {hi:.3f}]':>15} "
                     f"{f'{wins}/{len(ratios)}':>9} "
                     f"{r['failed_a']:>5}/{r['failed_b']}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("--pairs", type=int, default=100)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    print(f"A = {provenance(args.tree_a)}\nB = {provenance(args.tree_b)}")
    print(report(compare(args.tree_a, args.tree_b, args.pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

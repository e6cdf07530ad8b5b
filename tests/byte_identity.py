"""Dump the reports of a grid of `qhm` runs, for a byte-identity check.

Usage, from the root of a checkout (point PYTHONPATH at the `src` of the
tree under test):

    PYTHONPATH=src python tests/byte_identity.py OUT

For each (c, su, sv) of CASES it runs `verify` at refinements 9, 27 and 45
with seeds 0 and 7, `solve` at refinements 9 (with --sweep), 27, 45 and 135,
and `morita` at Morita refinement 8, each in-process through qhm.cli.main.
Each run leaves, in its own directory under OUT, its JSON report, a
`status` file with its exit code and its stderr, and the sha256 of every
CSV it wrote (`csv.sha256`, in place of the CSVs).  Two trees' dumps are
byte-identical exactly when `diff -r OUT_A OUT_B` prints nothing.
"""

import contextlib
import hashlib
import io
import os
import sys
from typing import Iterable, Sequence, Tuple

from qhm import cli

# (c, su, sv)
CASES = (("1", "1/4", "1/4"), ("2", "2/7", "1/2"), ("3", "1/5", "1/3"))

# (command, refinement, seed, extra arguments); morita's refinement is the
# config key morita.refinement
RUNS = tuple([("verify", r, seed, ()) for r in (9, 27, 45) for seed in (0, 7)]
             + [("solve", 9, 0, ("--sweep",))]
             + [("solve", r, 0, ()) for r in (27, 45, 135)]
             + [("morita", 8, 0, ())])

Run = Tuple[str, int, int, Sequence[str]]


def dump_run(out: str, case: Sequence[str], run: Run) -> str:
    """Run one command of one case into its own directory under `out`."""
    c, su, sv = case
    command, refinement, seed, extra = run
    name = (f"c{c}-su{su}-sv{sv}".replace("/", "_")
            + f"/{command}-r{refinement}-s{seed}" + "".join(extra))
    where = os.path.join(out, name)
    os.makedirs(where, exist_ok=True)
    config = os.path.join(where, "run.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"c = {c}\nsu = {su}\nsv = {sv}\n")
        if command == "morita":
            fh.write(f"morita.refinement = {refinement}\n")
    argv = [command, "--config", config, "--seed", str(seed), "--out", where]
    if command != "morita":
        argv += ["--refinement", str(refinement)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv + list(extra))
    os.remove(config)
    with open(os.path.join(where, "status"), "w", encoding="utf-8") as fh:
        fh.write(f"exit {code}\n{err.getvalue()}")
    csvs = sorted(f for f in os.listdir(where) if f.endswith(".csv"))
    if csvs:
        with open(os.path.join(where, "csv.sha256"), "w", encoding="utf-8") as fh:
            for f in csvs:
                path = os.path.join(where, f)
                with open(path, "rb") as data:
                    fh.write(f"{hashlib.sha256(data.read()).hexdigest()}  {f}\n")
                os.remove(path)
    return where


def dump(out: str, cases: Iterable[Sequence[str]] = CASES,
         runs: Iterable[Run] = RUNS) -> None:
    for case in cases:
        for run in runs:
            dump_run(out, case, run)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    dump(sys.argv[1])

"""The three benchmark workloads and the correctness gate of each.

Every workload is closed loop with one client on one thread: the next
operation starts when the previous one returns.  All use the test-default
parameters c = 1, su = sv = 1/4.  An operation is called with its own seed
and a scratch directory; it returns the list of its checks, each a
(name, passed) pair that the gate recomputes from the raw numbers instead of
trusting any `all_pass` or `pass` field of a report.

Functions are looked up through their modules at call time so that the
span wrappers of a traced run see these calls too.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from qhm import calculus, cli, laplace, lattice, projection, yangmills

PARAMS = lattice.Params.from_steps(1, Fraction(1, 4), Fraction(1, 4))

Checks = List[Tuple[str, bool]]

# Reference values of the seed, with the tolerance the gate allows.
YM_TOL = 1e-5
YM_R27 = 159.10442281
YM_R45 = 157.92581177
YM_R135 = 157.91368211
CRIT_TOL = 1e-5            # acceptance criterion 7
GRASSMANN_R3_FLOOR = 1e-2  # the unperturbed connection must visibly fail


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _csv_ok(path: str, rows: int) -> bool:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0] == "x,y,re,im" and len(lines) == rows + 1


def solve_r27(seed: int, scratch: str) -> Checks:
    """What `qhm solve --refinement 27 --seed <seed>` computes and writes."""
    out = os.path.join(scratch, "solve")
    cfg = cli.RunConfig(params=PARAMS, refinement=27, seed=seed, out=out)
    rep = cli.run_solve(cfg)
    res, res0 = rep["residuals"], rep["residuals_grassmannian"]
    grid = lattice.make_grid(PARAMS, 27)
    rows = grid.su_steps * grid.ny
    return [
        ("r1", res["r1"] <= CRIT_TOL),
        ("r2", res["r2"] <= CRIT_TOL),
        ("r3_osc", res["r3_osc"] <= CRIT_TOL),
        ("grassmannian_r3", res0["r3"] >= GRASSMANN_R3_FLOOR),
        ("ym", _rel(rep["ym"], YM_R27) <= YM_TOL),
        ("csv_files", all(_csv_ok(os.path.join(out, name), rows)
                          for name in rep["csv_files"])),
    ]


def ym_ladder(seed: int, scratch: str) -> Checks:
    """The battery-free construction at refinements 45 and 135.

    The construction takes no random input, so every seed gives the same
    operation.
    """
    c = PARAMS.c
    ym: Dict[int, float] = {}
    checks: Checks = []
    for refinement, ref in ((45, YM_R45), (135, YM_R135)):
        grid = lattice.make_grid(PARAMS, refinement)
        R = projection.build_R(PARAMS, grid)
        theta0 = calculus.curvature_closed(R)
        f1, f2 = calculus.extract_f1_f2(theta0)
        rhs = laplace.assemble_rhs(f1, f2, c)
        g3 = laplace.solve_poisson(rhs)
        pert = laplace.build_perturbation(f1, g3, c)
        nabla = calculus.Connection(R, pert)
        ym[refinement] = yangmills.ym_value(nabla, theta0)
        form = laplace.laplace_form_residuals(f1, f2, pert, c)
        checks += [
            (f"ym_{refinement}", _rel(ym[refinement], ref) <= YM_TOL),
            (f"theta_xy_{refinement}", form["theta_xy"] <= 1e-10),
            (f"second_eq_osc_{refinement}", form["second_eq_osc"] <= 1e-6),
        ]
    checks.append(("ym_3_digits", f"{ym[45]:.3g}" == f"{ym[135]:.3g}"))
    return checks


def identity_checks(seed: int, scratch: str,
                    tamper: bool = False) -> Checks:
    """`qhm verify --refinement 27` plus `qhm morita` at refinement 8."""
    cfg = cli.RunConfig(params=PARAMS, refinement=27, seed=seed,
                        out=scratch, morita_refinement=8, tamper_star=tamper)
    ver = cli.run_verify(cfg)
    mor = cli.run_morita(cfg)
    return ([(f"verify.{c['name']}", c["violation"] <= c["tolerance"])
             for c in ver["checks"]]
            + [(f"morita.{name}", c["violation"] <= c["tol"])
               for name, c in sorted(mor["checks"].items())])


def tamper_self_test(seed: int, scratch: str) -> bool:
    """True when a deliberately wrong star product fails the gate.

    `tamper_star` negates the top component of Q * Q, so the gate must count
    the idempotence check as failed; otherwise it could pass vacuously.
    """
    checks = dict(identity_checks(seed, scratch, tamper=True))
    return checks.get("verify.projection_idempotent") is False


class Workload(NamedTuple):
    op: Callable[[int, str], Checks]
    # Checks the seed program is known to fail.  They count in failed_frac
    # like any other failure but do not make an operation incorrect.
    seed_failures: FrozenSet[str]
    self_test: Optional[Callable[[int, str], bool]] = None


WORKLOADS: Dict[str, Workload] = {
    "solve-r27": Workload(solve_r27, frozenset()),
    "ym-ladder": Workload(ym_ladder, frozenset()),
    "identity-checks": Workload(identity_checks, frozenset({
        # reads 1.19e-12 against its 1e-12 tolerance at refinement >= 27
        "verify.laplace_eigenfunction",
        # reads about 10 at morita refinements 3 to 8; passes only at 2
        "morita.membership_transport",
    }), tamper_self_test),
}

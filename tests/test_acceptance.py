"""Acceptance gate: ten criteria, one pass/fail line each.

Criteria that need a nonvanishing Grassmannian curvature run on grids fine
enough to put sample points inside the ramp transitions (refinement 9 and
up; at the coarse default the ramp has no interior samples, the curvature
is identically zero and the corresponding checks would be vacuous).  The
constructed connection is exactly critical in the discrete calculus on odd
and even refinements alike, since G3 carries f1's part on the kernel of the
discrete d/dx (on an even x-axis that includes the x-Nyquist row).
"""

import json
import math

import numpy as np
import pytest

from qhm.algebra import AlgebraElement, adjoint, derivation, star, trace
from qhm.bimodule import act_left, act_right, inner_D, inner_E
from qhm.calculus import (Connection, curvature_closed, extract_f1_f2,
                          mult_element)
from qhm.laplace import solve_poisson, verify_critical
from qhm.lattice import TorusFunction, make_grid
from qhm.morita import verify_bimodule_preservation
from qhm.projection import build_R, verify_R_conditions
from qhm.yangmills import critical_residuals, ym_value
from oracles import (commutator_mult, curvature_definition, make_battery,
                     nabla_of, random_perturbation, ym_directional)
from test_laplace import closed_form_error


def report(n, label, ok, detail=""):
    line = f"criterion {n:2d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def crit27(params):
    grid = make_grid(params, 27)
    R = build_R(params, grid)
    return grid, R, verify_critical(R)


def test_criterion_01_projection_suite(params, grid2, R2):
    Q = inner_D(R2, R2)
    worst = max((star(Q, Q) - Q).norm_inf(),
                (adjoint(Q) - Q).norm_inf(),
                (inner_E(R2, R2)
                 - AlgebraElement.identity("E", grid2, 0)).norm_inf())
    trace_dev = abs(trace(Q) - float(params.su))
    report(1, "projection suite", worst <= 1e-12 and trace_dev <= 1e-10,
           f"identities {worst:.1e}, trace dev {trace_dev:.1e}")


def test_criterion_02_condition_lists(R2):
    devs = verify_R_conditions(R2, inner_D(R2, R2))
    worst = max(devs.values())
    report(2, "condition lists", worst <= 1e-12,
           f"worst {worst:.1e} over {len(devs)} lists")


def connection_axiom_error(params, refinement):
    grid = make_grid(params, refinement, pairwise=True)
    R = build_R(params, grid)
    nabla0 = Connection(R)
    battery = make_battery(grid, 16, 0)
    worst = 0.0
    for f, g in zip(battery[0::2], battery[1::2]):
        phi = inner_D(R, f)
        dfg = inner_D(f, g)
        mscale = max(dfg.norm_inf(), 1e-30)
        for w in "XYZ":
            lhs = nabla_of(nabla0, w, act_right(f, phi))
            rhs = act_right(nabla_of(nabla0, w, f), phi) \
                + act_right(f, derivation(w, phi))
            lscale = max(lhs.norm_inf(), rhs.norm_inf(), 1e-30)
            worst = max(worst, (lhs - rhs).norm_inf() / lscale)
            met = (derivation(w, dfg)
                   - inner_D(nabla_of(nabla0, w, f), g)
                   - inner_D(f, nabla_of(nabla0, w, g))).norm_inf()
            worst = max(worst, met / mscale)
    return worst


def test_criterion_03_connection_axioms(params):
    e2 = connection_axiom_error(params, 2)
    e4 = connection_axiom_error(params, 4)
    order_ok = e4 <= e2 / 2 ** 5 or e4 <= 1e-11   # both at the exactness floor
    report(3, "connection axioms", e2 <= 1e-6 and order_ok,
           f"err(2)={e2:.1e}, err(4)={e4:.1e}")


def test_criterion_04_curvature_structure(grid9, R9, rng):
    theta0 = curvature_closed(R9)
    xz = theta0.xz.norm_inf()
    structure_ok = True
    try:
        extract_f1_f2(theta0)   # p-support {0}, y-variation, imaginary
    except Exception:
        structure_ok = False
    nabla0 = Connection(R9)
    battery = make_battery(grid9, 2, 1)
    op_err = 0.0
    for f in battery:
        scale = max(theta0.norm_inf() * f.norm_inf(), 1e-30)
        for w1, w2 in (("X", "Y"), ("X", "Z"), ("Y", "Z")):
            d = (curvature_definition(nabla0, w1, w2, f)
                 - act_left(theta0.component(w1, w2), f)).norm_inf()
            op_err = max(op_err, d / scale)
    report(4, "curvature structure",
           xz <= 1e-8 and structure_ok and op_err <= 5e-6,
           f"xz {xz:.1e}, op-vs-closed {op_err:.1e}")


def test_criterion_05_commutator_identities(grid4, R4):
    nabla0 = Connection(R4)
    f = make_battery(grid4, 1, 2)[0]
    worst = 0.0
    for n in range(-1, 2):
        for m in range(-1, 2):
            co = np.zeros((grid4.su_steps, grid4.ny), complex)
            co[n, m] = 1j
            co[-n, -m] += 1j      # skew combination of characters
            g = TorusFunction.from_fft(grid4, co)
            scale = max(f.norm_inf() * g.norm_inf(), 1e-30)
            pairs = (("X", g.d_dy()), ("Y", g.d_dx()))
            for w, d in pairs:
                com = commutator_mult(nabla0, g, w, f)
                ref = act_left(mult_element(d, 1), f).scaled(-1)
                worst = max(worst, (com - ref).norm_inf() / scale)
            worst = max(worst,
                        commutator_mult(nabla0, g, "Z", f).norm_inf() / scale)
    report(5, "commutator identities", worst <= 1e-8, f"worst {worst:.1e}")


def test_criterion_06_poisson_solver(grid4, rng):
    # each character, its d/dx, d/dy and Laplacian against closed forms
    eig_err = max(closed_form_error(grid4, n, m)
                  for n, m in ((0, 1), (1, 0), (1, 1), (1, 2)))
    from qhm.laplace import PoissonRHS
    co = np.zeros((grid4.su_steps, grid4.ny), complex)
    for n in range(-1, 2):
        for m in range(-3, 4):
            if (n, m) != (0, 0):
                co[n, m] = complex(rng.normal(), rng.normal())
    w = TorusFunction.from_fft(grid4, co)
    sol = solve_poisson(PoissonRHS(w=w, a0=0.0, discarded_mean=0.0))
    apply_err = (sol.d_dx().d_dx() + sol.d_dy().d_dy()
                 - w).norm_inf() / w.norm_inf()
    report(6, "poisson solver", eig_err <= 1e-12 and apply_err <= 1e-9,
           f"eigenfunction {eig_err:.1e}, apply {apply_err:.1e}")


def test_criterion_07_critical_point(crit27):
    grid, R, rep = crit27
    res = rep["residuals"]
    res0 = rep["residuals_grassmannian"]
    resid_ok = res["r1"] <= 1e-5 and res["r2"] <= 1e-5 \
        and res["r3"] <= 1e-5
    nabla = Connection(R, rep["perturbation"])
    ym0 = rep["ym"]
    rng = np.random.default_rng(2)
    stat = 0.0
    for _ in range(5):
        direction = random_perturbation(grid, rng)
        stat = max(stat, abs(ym_directional(nabla, direction,
                                            theta0=rep["theta0"])))
    stat_ok = stat <= 1e-5 * ym0
    flat_fails = res0["r3"] >= 1e3 * 1e-5
    report(7, "critical point",
           resid_ok and stat_ok and flat_fails,
           f"r1 {res['r1']:.1e}, r2 {res['r2']:.1e}, "
           f"r3 {res['r3']:.1e}, "
           f"|dYM| {stat:.1e} vs YM {ym0:.4f}, flat r3 {res0['r3']:.1e}")


def test_criterion_08_ym_values(params):
    vals = {}
    for refinement in (45, 90):
        grid = make_grid(params, refinement)
        R = build_R(params, grid)
        rep = verify_critical(R)
        vals[refinement] = rep["ym"]
    a, b = vals[45], vals[90]
    stable = f"{a:.3g}" == f"{b:.3g}"
    nonneg = a >= 0 and b >= 0
    # realness to 1e-10 is enforced inside ym_of_curvature; reaching here
    # without a raise certifies it
    report(8, "yang-mills values", stable and nonneg,
           f"YM(45)={a:.6f}, YM(90)={b:.6f}, 3-digit {f'{a:.3g}'}")


def test_criterion_09_morita_suite(grid2):
    rep = verify_bimodule_preservation(grid2, sample_count=20, seed=0,
                                      tol=1e-10)
    worst = max(c["violation"] for c in rep["checks"].values())
    report(9, "morita suite", rep["all_pass"],
           f"worst {worst:.1e} over 20 samples, "
           f"transport {rep['checks']['membership_transport']['violation']:.1e}")


def test_criterion_10_determinism(tmp_path):
    from qhm.cli import main
    blobs = {}
    for cmd, fname in (("verify", "verify_report.json"),
                       ("solve", "solve_summary.json")):
        pair = []
        for run in "ab":
            out = tmp_path / f"{cmd}_{run}"
            # solve passes only where the ramp has interior samples
            args = ["--refinement", "9"] if cmd == "solve" else []
            assert main([cmd, *args, "--out", str(out)]) == 0
            pair.append((out / fname).read_bytes())
        blobs[cmd] = pair[0] == pair[1]
    report(10, "determinism", blobs["verify"] and blobs["solve"],
           f"verify byte-identical {blobs['verify']}, "
           f"solve byte-identical {blobs['solve']}")

"""Spectral Poisson solver and the critical-point construction."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhm.bimodule import act_right, inner_D
from qhm.calculus import (Connection, check_skew, curvature_closed, curvature_perturbed,
                          extract_f1_f2)
from qhm.laplace import (assemble_rhs, build_perturbation, laplace_form_residuals,
                         solve_poisson, verify_critical)
from qhm.lattice import Grid, Params, TorusFunction, make_grid
from qhm.projection import build_R
from conftest import square_grid
from oracles import make_battery, patch_spectral_mutant


def character(grid, n, m):
    co = np.zeros((grid.su_steps, grid.ny), complex)
    co[n % grid.su_steps, m % grid.ny] = 1.0
    return TorusFunction.from_fft(grid, co)


def closed_form_error(grid, n, m):
    """Largest relative sup-error of chi = character(grid, n, m) and of its
    d/dx, d/dy and Laplacian against e(kx x + ky y) times 1, 2 pi i kx,
    2 pi i ky and -4 pi^2 (kx^2 + ky^2), kx = (n - sv m)/su, ky = m: closed
    forms that share no code with the spectral tables."""
    p = grid.params
    kx, ky = float((n - p.sv * m) / p.su), m
    xs = grid.x_of(np.arange(grid.su_steps))[:, None]
    e = np.exp(2j * math.pi * (kx * xs + ky * grid.ys))
    chi = character(grid, n, m)
    dx, dy = chi.d_dx(), chi.d_dy()
    return max(float(np.max(np.abs(t.samples - want * e))) / max(abs(want), 1.0)
               for t, want in ((chi, 1.0), (dx, 2j * math.pi * kx),
                               (dy, 2j * math.pi * ky),
                               (dx.d_dx() + dy.d_dy(),
                                -4 * math.pi ** 2 * (kx ** 2 + ky ** 2))))


def test_eigenfunction_exactness(grid4):
    # in-band modes only: Nyquist rows carry the odd-operator mask
    for n, m in ((0, 1), (1, 0), (1, 1), (1, 2)):
        assert closed_form_error(grid4, n, m) < 1e-12, (n, m)


@pytest.mark.parametrize("mutant", ["shear", "sv", "mode"])
def test_closed_forms_catch_spectral_mutants(params, monkeypatch, mutant):
    # the comparison with the Laplace table passed the shear and sv
    # mutants: both sides read the Grid's tables.  A grid keeps the tables
    # it has built, so the mutant gets a fresh one.
    patch_spectral_mutant(monkeypatch, mutant)
    grid = square_grid(params, 4)
    assert max(closed_form_error(grid, n, m)
               for n, m in ((0, 1), (1, 0), (1, 1), (1, 2))) > 0.5


def test_poisson_solves_manufactured_problem(grid4, rng):
    # manufacture G, form w = Laplace(G), recover G up to the zero mode
    from qhm.laplace import PoissonRHS
    co = np.zeros((grid4.su_steps, grid4.ny), complex)
    for n in range(-1, 2):
        for m in range(-1, 2):
            if (n, m) != (0, 0):
                co[n, m] = complex(rng.normal(), rng.normal())
    g_true = TorusFunction.from_fft(grid4, co)
    w = g_true.d_dx().d_dx() + g_true.d_dy().d_dy()
    sol = solve_poisson(PoissonRHS(w=w, a0=0.0, discarded_mean=0.0))
    assert (sol - g_true).norm_inf() < 1e-10 * max(g_true.norm_inf(), 1)


def test_poisson_apply_residual(grid4, rng):
    from qhm.laplace import PoissonRHS
    co = np.zeros((grid4.su_steps, grid4.ny), complex)
    for n in range(-1, 2):
        for m in range(-3, 4):
            if (n, m) != (0, 0):
                co[n, m] = complex(rng.normal(), rng.normal())
    w = TorusFunction.from_fft(grid4, co)
    sol = solve_poisson(PoissonRHS(w=w, a0=0.0, discarded_mean=0.0))
    resid = (sol.d_dx().d_dx() + sol.d_dy().d_dy() - w).norm_inf()
    assert resid < 1e-9 * w.norm_inf()


def test_poisson_rejects_nonzero_mean(grid4):
    from qhm.laplace import PoissonRHS
    w = TorusFunction(grid4, np.ones((grid4.su_steps, grid4.ny), complex))
    with pytest.raises(ValueError):
        solve_poisson(PoissonRHS(w=w, a0=0.0, discarded_mean=0.0))


def test_assemble_rhs_splits_zero_mode(grid9, R9):
    f1, f2 = extract_f1_f2(curvature_closed(R9))
    rhs = assemble_rhs(f1, f2, grid9.params.c)
    assert abs(rhs.w.mean()) < 1e-12 * max(rhs.w.norm_inf(), 1)
    assert abs(rhs.discarded_mean - grid9.params.c * rhs.a0) < 1e-12
    # the observed zero mode of f1 is purely imaginary and nonzero
    assert abs(rhs.a0.real) < 1e-10
    assert abs(rhs.a0.imag) > 0.5


def test_construction_is_critical(R9):
    rep = verify_critical(R9)
    from qhm.yangmills import critical_residuals
    nabla = Connection(R9, rep["perturbation"])
    theta = curvature_perturbed(rep["theta0"], rep["perturbation"], R9.grid.params.c, 1)
    [res] = critical_residuals([nabla], rep["theta0"], [theta])
    assert res.r1 < 1e-10
    assert res.r2 < 1e-10
    assert res.r3 < 1e-10


def test_flat_connection_is_not_critical(R9):
    rep = verify_critical(R9)
    res0 = rep["residuals_grassmannian"]
    assert res0["r3"] > 1.0


@pytest.mark.parametrize("c, sv", [(1, Fraction(1, 4)), (3, Fraction(1, 3))],
                         ids=["c1", "c3"])
def test_g3_absorbs_the_dx_kernel_of_f1(c, sv):
    # G3 - solve_poisson(rhs) is f1's part on the d/dx kernel over c.  f1
    # does not depend on y, so that part is its mean a0 and, when the
    # x-axis across su has even length, its x-Nyquist row b (-1)^i with
    # b = mean of f1 (-1)^i: closed forms that read the samples directly.
    params = Params.from_steps(c, Fraction(1, 4), sv)
    for refinement in (9, 8):
        grid = make_grid(params, refinement)
        f1, f2 = extract_f1_f2(curvature_closed(build_R(params, grid)))
        g3 = solve_poisson(assemble_rhs(f1, f2, c))
        shift = build_perturbation(f1, g3, c).g3 - g3
        want = np.full(f1.samples.shape, f1.mean())
        if grid.su_steps % 2 == 0:
            sign = (-1.0) ** np.arange(grid.su_steps)[:, None]
            b = np.mean(f1.samples * sign)
            assert abs(b) > 0.1   # the row is there to move
            want = want + b * sign
        assert np.max(np.abs(shift.samples - want / c)) < 1e-12


def test_construction_leaves_the_kept_transforms(params):
    # f1 and f2 are kept on theta0 and keep their coefficients; on an even
    # x-axis build_perturbation zeroes the mean of a copy of f1's, and the
    # kept array stays as it was, byte for byte
    grid = make_grid(params, 8)
    assert grid.su_steps % 2 == 0
    theta0 = curvature_closed(build_R(params, grid))
    f1, f2 = extract_f1_f2(theta0)
    assert all(a is b for a, b in zip(extract_f1_f2(theta0), (f1, f2)))
    before = f1.fft().tobytes()
    g3 = solve_poisson(assemble_rhs(f1, f2, params.c))
    build_perturbation(f1, g3, params.c)
    assert f1.fft().tobytes() == before and f1.fft()[0, 0] != 0


def test_laplace_form_residuals(grid9, R9):
    rep = verify_critical(R9)
    cor = laplace_form_residuals(rep["f1"], rep["f2"], rep["perturbation"],
                              grid9.params.c)
    assert sorted(cor) == ["second_eq_osc", "theta_xy"]
    assert cor["theta_xy"] < 1e-10
    assert cor["second_eq_osc"] < 1e-9


def test_perturbation_components_are_skew(grid9, R9):
    rep = verify_critical(R9)
    pert = rep["perturbation"]
    for name, g in pert.items():
        check_skew(g, name, 1e-11)
    assert pert.g2.norm_inf() == 0.0


@pytest.mark.parametrize("c, su, sv", [
    (1, Fraction(1, 4), Fraction(1, 4)),
    (2, Fraction(1, 4), Fraction(1, 4)),
    (3, Fraction(1, 4), Fraction(1, 3))])
def test_ym_converges_to_closed_form_limit(c, su, sv):
    # YM = su |<f2>|^2 with <f2> -> 2 pi i c / su, so YM -> 4 pi^2 c^2 / su;
    # the error is superalgebraic in the refinement, 4.6e-14 at 405
    params = Params.from_steps(c, su, sv)
    rep = verify_critical(build_R(params, make_grid(params, 405)))
    su_f = float(su)
    assert abs(rep["ym"] / (4 * math.pi ** 2 * c ** 2 / su_f) - 1) <= 1e-13
    assert abs(rep["f2"].mean() / (2j * math.pi * c / su_f) - 1) <= 1e-13
    assert abs(rep["a0"] / (-1j * math.pi * c / 4) - 1) <= 1e-13


def _on_y_grid(a: np.ndarray, ny: int) -> np.ndarray:
    """Rows of a evaluated at y = j/ny through their trigonometric
    interpolant; exact for content below the Nyquist line of a."""
    n = a.shape[1]
    m = np.fft.fftfreq(n, 1.0 / n)
    return np.fft.fft(a, axis=1) @ np.exp(
        2j * math.pi * np.outer(m, np.arange(ny) / ny)) / n


def _solve_on(grid):
    rep = verify_critical(build_R(grid.params, grid))
    form = laplace_form_residuals(rep["f1"], rep["f2"], rep["perturbation"],
                                  grid.params.c)
    return rep, form


@settings(max_examples=12, deadline=None, derandomize=True)
@given(c=st.integers(1, 3), b=st.integers(3, 6),
       sv=st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]),
       refinement=st.sampled_from([9, 15]))
def test_solve_band_holds_the_construction(c, b, sv, refinement):
    # Solve's ny holds the band B = c of R's content, so a grid of three
    # times its ny gives the same construction to rounding.  A grid sized
    # for B = c - 1 moves YM by about 2% at c = 2 or 3 with sv = 1/3.
    params = Params.from_steps(c, Fraction(1, b), sv)
    grid = make_grid(params, refinement)
    rep, _ = _solve_on(grid)
    ref, _ = _solve_on(Grid(params, grid.hx, grid.hy / 3))
    assert abs(rep["ym"] / ref["ym"] - 1) <= 1e-13
    assert abs(rep["a0"] / ref["a0"] - 1) <= 1e-13
    for k in ("r1", "r2", "r3_osc"):
        assert abs(rep["residuals"][k] - ref["residuals"][k]) <= 5e-12
    for k in ("r1", "r3"):
        got, want = rep["residuals_grassmannian"][k], ref["residuals_grassmannian"][k]
        assert abs(got / want - 1) <= 1e-12


def _battery_on(grid, seed):
    R = build_R(grid.params, grid)
    battery = make_battery(grid, 4, seed, include=[R])
    nabla0 = [v for f in battery for v in act_right(R, inner_D(R, f), "XYZ").members()]
    return battery, nabla0


@pytest.mark.parametrize("refinement", [9, 27])
@pytest.mark.parametrize("sv", [Fraction(1, 4), Fraction(1, 3)])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_default_grid_matches_refinement_tied_grid(c, sv, refinement):
    # The default ny carries every y-mode of solve, so its run agrees with
    # the refinement-tied grid (ny = denominator of sv times the refinement),
    # which has 3 to 27 times more y-samples, to rounding.
    params = Params.from_steps(c, Fraction(1, 4), sv)
    fine = Grid(params, Fraction(1, 4 * refinement),
                Fraction(1, sv.denominator * refinement))
    grid = make_grid(params, refinement)
    assert 3 * grid.ny <= fine.ny
    ref, ref_form = _solve_on(fine)
    rep, form = _solve_on(grid)

    assert abs(rep["ym"] / ref["ym"] - 1) <= 1e-13
    assert abs(rep["a0"] / ref["a0"] - 1) <= 1e-13
    for k in ("r1", "r2", "r3_osc"):
        assert abs(rep["residuals"][k] - ref["residuals"][k]) <= 5e-12
    for k in ("r1", "r3"):
        got, want = rep["residuals_grassmannian"][k], ref["residuals_grassmannian"][k]
        assert abs(got / want - 1) <= 1e-12
    assert abs(form["theta_xy"] - ref_form["theta_xy"]) <= 1e-12
    # the fine grid's own Laplace roundoff, which grows like ny^2
    assert abs(form["second_eq_osc"] - ref_form["second_eq_osc"]) <= 1e-9

    # A battery needs the pairwise band, which the tied grid does not hold
    # at every refinement: compare the pairwise-band grid with one of three
    # times its ny.  Same draws, modes and translates: the coarse battery is
    # the fine one sampled on the coarse y-points.
    grid = make_grid(params, refinement, pairwise=True)
    fine = Grid(params, grid.hx, grid.hy / 3)
    ref_battery, ref_nabla0 = _battery_on(fine, 5)
    battery, nabla0 = _battery_on(grid, 5)
    assert len(battery) == len(ref_battery)
    for f, g in zip(battery, ref_battery):
        assert (f.i0, f.nx, f.depth) == (g.i0, g.nx, g.depth)
        for a, b in zip(f.chain, g.chain):
            scale = max(np.max(np.abs(b)), 1.0)
            assert np.max(np.abs(a - _on_y_grid(b, grid.ny))) <= 1e-13 * scale
    assert any(np.max(np.abs(f.data - f.data[:, :1])) > 1e-3 * f.norm_inf()
               for f in battery[1:])

    # The residuals are norms of E-elements and read no test vector, so
    # they would not see a vector the coarse grid mishandles: compare the
    # Grassmannian connection of every vector along every direction.
    for a, b in zip(nabla0, ref_nabla0):
        lo, hi = min(a.i0, b.i0), max(a.i1, b.i1)
        fine_vals = b.window(lo, hi)[0]
        scale = max(np.max(np.abs(fine_vals)), 1.0)
        dev = np.max(np.abs(a.window(lo, hi)[0] - _on_y_grid(fine_vals, grid.ny)))
        assert dev <= 1e-11 * scale

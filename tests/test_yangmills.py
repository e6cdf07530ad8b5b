"""Yang-Mills functional, pairing and variation tests."""

import sys
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from qhm.algebra import AlgebraElement, E_FLAVOR, bracket, star, trace
from qhm.bimodule import act_left, act_right, inner_D, inner_E
from qhm.calculus import (Connection, Curvature2Form, Perturbation,
                          curvature_closed, curvature_of, extract_f1_f2,
                          mult_element)
from qhm.laplace import (assemble_rhs, build_perturbation, solve_poisson,
                         verify_critical)
from qhm.lattice import Grid, Params, ScalarField, TorusFunction, make_grid
from qhm.projection import build_R
from qhm.random_fields import random_torus_function
from qhm import yangmills
from qhm.yangmills import (BASIS, Residuals, critical_residuals,
                           euler_lagrange_elements, ym_of_curvature,
                           ym_value)
from oracles import (bits_equal, euler_lagrange_apply, first_variation,
                     make_battery, pair_forms, random_perturbation,
                     ym_directional)


@pytest.fixture()
def perturbed(grid2, R2, rng):
    return Connection(R2, random_perturbation(grid2, rng))


def test_ym_real_and_nonnegative(perturbed):
    val = ym_value(perturbed)
    assert val >= 0.0
    # curvature of a skew perturbation on the flat coarse grid is nonzero
    assert val > 1e-6


def test_ym_zero_for_flat_connection(R2):
    # refinement-2 Grassmannian curvature vanishes identically
    assert ym_value(Connection(R2)) < 1e-20


def test_ym_scales_quartically_in_flat_background(grid2, R2, rng):
    # Theta(t G) = t Theta(G) when theta0 = 0 and the G's commute, so
    # YM(t G3-only direction) = t^2 YM(G3)
    g3 = random_torus_function(grid2, rng)
    z = TorusFunction.zeros(grid2)
    pert = Perturbation(z, z, g3)
    a = ym_value(Connection(R2, pert))
    b = ym_value(Connection(R2, pert.scaled(2.0)))
    assert abs(b - 4 * a) < 1e-8 * max(b, 1.0)


def test_pairing_symmetric_under_trace(perturbed, grid2, R2, rng):
    ta = curvature_of(perturbed)
    tb = curvature_of(Connection(R2, random_perturbation(grid2, rng)))
    ab = trace(pair_forms(ta, tb))
    ba = trace(pair_forms(tb, ta))
    assert abs(ab - ba) < 1e-10 * max(abs(ab), 1.0)


def test_first_variation_matches_central_difference(perturbed, grid2, rng):
    direction = random_perturbation(grid2, rng)
    fd = ym_directional(perturbed, direction, t=1e-5)
    exact = first_variation(perturbed, direction)
    scale = max(abs(fd), abs(exact), 1.0)
    assert abs(fd - exact) < 1e-6 * scale


def test_residuals_zero_for_flat_connection(R2):
    [res] = critical_residuals([Connection(R2)])
    assert res.r1 < 1e-12 and res.r2 < 1e-12 and res.r3 < 1e-12


def test_residuals_nonzero_for_generic_perturbation(grid2, R2, rng):
    nabla = Connection(R2, random_perturbation(grid2, rng))
    [res] = critical_residuals([nabla])
    assert max(res.r1, res.r2, res.r3) > 1e-3


def test_euler_lagrange_builds_each_shared_piece_once(params, grid9, R9,
                                                      monkeypatch):
    # One <R, v>_D per distinct vector v (f and Theta(a, b) f for a < b)
    # and one multiplication element per perturbation component.
    theta0 = curvature_closed(R9)
    f1, f2 = extract_f1_f2(theta0)
    g3 = solve_poisson(assemble_rhs(f1, f2, params.c))
    nabla = Connection(R9, build_perturbation(f1, g3, params.c))
    theta = curvature_of(nabla, theta0)
    f = make_battery(grid9, 1, seed=0)[0]
    calls = {"inner_D": 0, "mult_element": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("inner_D", inner_D), ("mult_element", mult_element)):
        wrapper = counting(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.startswith("qhm") or mod_name == "oracles") \
                    and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    euler_lagrange_apply(nabla, theta, f)
    assert calls == {"inner_D": 4, "mult_element": 3}


def test_equations_read_no_chain_order_beyond_one(params, grid9, R9):
    # The oracle reads order 1 of f at most: order 0 of every equation must
    # be bitwise the same with f cut to depth 1 as with the full chain, for
    # the constructed and the Grassmannian connection.
    theta0 = curvature_closed(R9)
    f1, f2 = extract_f1_f2(theta0)
    g3 = solve_poisson(assemble_rhs(f1, f2, params.c))
    f = make_battery(grid9, 1, seed=0)[0]
    assert f.depth == 2
    cut = ScalarField(grid9, f.i0, f.chain[:2])
    for nabla in (Connection(R9, build_perturbation(f1, g3, params.c)),
                  Connection(R9)):
        theta = curvature_of(nabla, theta0)
        full = euler_lagrange_apply(nabla, theta, f)
        short = euler_lagrange_apply(nabla, theta, cut)
        for i in "XYZ":
            a, b = full[i], short[i]
            assert a.norm_inf() > 0
            lo, hi = min(a.i0, b.i0), max(a.i1, b.i1)
            assert np.array_equal(a.window(lo, hi)[0], b.window(lo, hi)[0])


@pytest.mark.parametrize("connection", ["constructed", "grassmannian"])
@pytest.mark.parametrize("refinement", [9, 27])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_elements_act_as_the_operator_equations(c, refinement, connection):
    # Each Euler-Lagrange element, acting on a vector, is the operator
    # equation applied to it, on R and on every vector of a battery, drawn
    # on the pairwise-band grid that make_battery needs.  The error is
    # measured against the normalization of the residuals, ||f|| times the
    # curvature scale; it reads at most 3e-13, and flipping the sign of
    # c Theta(X,Y) makes it O(1).
    params = Params.from_steps(c, Fraction(1, 4), Fraction(1, 4))
    grid = make_grid(params, refinement, pairwise=True)
    R = build_R(params, grid)
    rep = verify_critical(R)
    theta0 = rep["theta0"]
    nabla = Connection(R, rep["perturbation"] if connection == "constructed"
                       else None)
    theta = curvature_of(nabla, theta0)
    scale = theta0.norm_inf()
    assert scale > 1
    [eqs] = euler_lagrange_elements([nabla], [theta])
    for f in make_battery(grid, 4, 5, include=[R]):
        ref = euler_lagrange_apply(nabla, theta, f)
        for i in BASIS:
            err = (act_left(eqs[i], f) - ref[i]).norm_inf()
            assert err <= 1e-10 * f.norm_inf() * scale, (i, err)


@pytest.mark.parametrize("c, refinement", [(1, 9), (3, 27)])
def test_elements_keep_the_perturbation_commutators(c, refinement):
    # The curvature of every connection nabla0 + G is of multiplication
    # type, and so is G, so [G_j, Theta] vanishes on the solve pipeline.
    # A generic 2-form (inner products of random vectors, p-support beyond
    # 0) and a y-dependent G do not commute once G(x + 1, y) != G(x, y),
    # here since sv / su = 4/3 is not an integer; the elements must still
    # act as the operator equations.  Dropping [G_j, T] makes the error
    # about 2 (against 1e-13).
    params = Params.from_steps(c, Fraction(1, 4), Fraction(1, 3))
    grid = Grid(params, Fraction(1, 4 * refinement), Fraction(1, 3 * refinement))
    R = build_R(params, grid)
    nabla = Connection(R, random_perturbation(grid, np.random.default_rng(1)))
    v = make_battery(grid, 6, 3)
    theta = Curvature2Form(inner_E(v[0], v[1]), inner_E(v[2], v[3]),
                           inner_E(v[4], v[5]))
    assert min(len(t.p_support) for t in (theta.xy, theta.xz, theta.yz)) > 1
    [eqs] = euler_lagrange_elements([nabla], [theta])
    for f in make_battery(grid, 2, 5, include=[R]):
        ref = euler_lagrange_apply(nabla, theta, f)
        for i in BASIS:
            err = (act_left(eqs[i], f) - ref[i]).norm_inf()
            assert err <= 1e-10 * f.norm_inf() * theta.norm_inf(), (i, err)


def _elements_reference(nabla, theta):
    """The Euler-Lagrange elements one connection and one direction at a
    time, every product at the full chain depth: the elements as they were
    formed before connections were batched and cut to the orders read."""
    R = nabla.R
    c = nabla.grid.params.c
    pert = nabla.perturbation
    mults = {} if pert is None else {
        j: mult_element(pert.component(j), 1) for j in BASIS}

    def commutator(t, t_hat, j):
        out = inner_E(act_right(R, t_hat, j), R)
        if j in mults:
            out = out + (star(mults[j], t) - star(t, mults[j]))
        return out

    eqs = {i: AlgebraElement.zero(E_FLAVOR, nabla.grid) for i in BASIS}
    for a, b in combinations(BASIS, 2):
        t = theta.component(a, b)
        t_hat = inner_D(R, act_left(t, R))
        eqs[a] = eqs[a] + commutator(t, t_hat, b)
        eqs[b] = eqs[b] - commutator(t, t_hat, a)
        sign, lbl = bracket(a, b)
        if sign:
            eqs[lbl] = eqs[lbl] - t.scaled(sign * c)
    return eqs


@pytest.mark.parametrize("refinement", [1, 2, 3, 9, 27])
@pytest.mark.parametrize("c, su, sv", [(1, "1/4", "1/4"), (2, "1/4", "1/3"),
                                       (3, "1/5", "1/3")])
def test_batched_residuals_equal_the_one_at_a_time_reference(c, su, sv,
                                                             refinement):
    # The three components of both connections pass through the kernels as
    # one batch and every product is formed only to the order read; the
    # values (order 0) of the elements, to the sign of each zero, and so the
    # residuals, must be those of the reference bit for bit.  At
    # refinements 1 and 2 the curvature vanishes and the elements are
    # empty.
    params = Params.from_steps(c, Fraction(su), Fraction(sv))
    R = build_R(params, make_grid(params, refinement))
    rep = verify_critical(R)
    theta0 = rep["theta0"]
    nablas = [Connection(R, rep["perturbation"]), Connection(R)]
    thetas = [curvature_of(nabla, theta0) for nabla in nablas]
    refs = [_elements_reference(n, t) for n, t in zip(nablas, thetas)]
    for eqs, ref in zip(euler_lagrange_elements(nablas, thetas), refs):
        for i in BASIS:
            assert eqs[i].depth == 0
            for p in set(eqs[i].comps) | set(ref[i].comps):
                assert bits_equal(eqs[i].component(p, 0),
                                  ref[i].component(p, 0)), (i, p)
    want = []
    for theta, ref in zip(thetas, refs):
        scale = max(theta0.norm_inf(), theta.norm_inf(), 1e-30)
        r1, r2, r3 = (ref[i].norm_inf() / scale for i in BASIS)
        want.append(Residuals(r1=r1, r2=r2, r3=r3, r3_osc=r3, scale=scale))
    assert critical_residuals(nablas, theta0, thetas) == want
    assert [rep["residuals"], rep["residuals_grassmannian"]] == \
        [asdict(res) for res in want]
    assert (want[1].r3 > 1) == (refinement > 2)


@pytest.mark.parametrize("c, su, sv", [(1, "1/4", "1/4"), (3, "1/5", "1/3")])
def test_ym_pairs_the_components_as_one_batch_bitwise(c, su, sv, monkeypatch):
    # ym_of_curvature forms the three products in one batched star; the
    # element it traces must be the pairing as three separate products,
    # added xy + xz + yz, to the sign of each zero, and so must its value.
    # Theta(X,Z) is zero to rounding for the constructed and the
    # Grassmannian connection, so only the random perturbation, whose
    # Theta(X,Z) is O(1), sees the order of the sum.
    traced = []
    monkeypatch.setattr(yangmills, "trace",
                        lambda a: traced.append(a) or trace(a))
    params = Params.from_steps(c, Fraction(su), Fraction(sv))
    grid = make_grid(params, 27)
    R = build_R(params, grid)
    rep = verify_critical(R)
    rng = np.random.default_rng(c)
    for nabla in (Connection(R, rep["perturbation"]), Connection(R),
                  Connection(R, random_perturbation(grid, rng))):
        theta = curvature_of(nabla, rep["theta0"], 0)
        # trace reads order 0 of the pairing, which YM forms alone
        cut = Curvature2Form(*(t.upto(0) for t in (theta.xy, theta.xz, theta.yz)))
        want = pair_forms(cut, cut)
        assert -trace(want).real > 1
        assert ym_of_curvature(theta) == -trace(want).real
        got = traced[-1]
        assert set(got.comps) == set(want.comps)
        for p in want.comps:
            assert bits_equal(got.comps[p], want.comps[p]), p
    assert theta.xz.norm_inf() > 0.1


def test_residuals_need_connections_that_share_r(params, grid9, R9):
    other = build_R(params, grid9)
    with pytest.raises(ValueError, match="share R"):
        critical_residuals([Connection(R9), Connection(other)])

"""Crossed-product algebra tests: star, adjoint, derivations, trace.

Valid twisted-periodic elements are produced through the module inner
products (flavor D) and multiplication elements (flavor E), so every
algebraic identity below is exercised on structurally correct data.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from qhm import jets
from qhm.algebra import (AlgebraElement, D_FLAVOR, E_FLAVOR, FlavorError,
                         adjoint, derivation, star, trace)
from qhm.bimodule import act_left, act_right, inner_D, inner_E
from qhm.calculus import Curvature2Form, mult_element
from qhm.lattice import Params, ScalarField, TorusFunction, make_grid, spectral_dy
from qhm.projection import build_R
from qhm.random_fields import (random_module_vector, random_torus_function,
                               smooth_envelope)

from oracles import (bits_equal, element_allclose, invariance_defect, laplacian,
                     skew_defect)


@pytest.fixture()
def d_elems(grid4, rng):
    env = smooth_envelope(grid4)
    f, g, h = (random_module_vector(grid4, rng, env) for _ in range(3))
    return inner_D(f, g), inner_D(g, h), inner_D(h, f)


@pytest.fixture()
def e_elems(grid4, rng):
    env = smooth_envelope(grid4)
    f, g = (random_module_vector(grid4, rng, env) for _ in range(2))
    return (inner_E(f, g), inner_E(g, f),
            mult_element(random_torus_function(grid4, rng), 2))


def test_identity_is_neutral(grid4, d_elems):
    a = d_elems[0]
    ident = AlgebraElement.identity(D_FLAVOR, grid4, depth=a.depth)
    assert element_allclose(star(ident, a), a)
    assert element_allclose(star(a, ident), a)


def test_star_associative(d_elems):
    a, b, c = d_elems
    assert element_allclose(star(star(a, b), c), star(a, star(b, c)), 1e-11)


def test_star_associative_flavor_e(e_elems):
    a, b, c = e_elems
    assert element_allclose(star(star(a, b), c), star(a, star(b, c)), 1e-11)


def test_adjoint_involution(d_elems, e_elems):
    for a in (*d_elems, *e_elems):
        assert element_allclose(adjoint(adjoint(a)), a)


def test_adjoint_antihomomorphism(d_elems):
    a, b, _ = d_elems
    assert element_allclose(adjoint(star(a, b)),
                            star(adjoint(b), adjoint(a)), 1e-11)


def test_flavors_do_not_mix(d_elems, e_elems):
    with pytest.raises(FlavorError):
        star(d_elems[0], e_elems[0])


def test_norms_keep_a_nan_behind_a_number(grid4):
    # max() drops a NaN once a number is ahead of it, so a NaN in a later
    # component or 2-form entry read as the finite norm of the others
    shape = (1, grid4.nx_unit, grid4.ny)
    a = AlgebraElement(D_FLAVOR, grid4, {0: np.ones(shape),
                                         1: np.full(shape, np.nan)})
    assert math.isnan(a.norm_inf())
    e = mult_element(random_torus_function(grid4, np.random.default_rng(0)), 1)
    bad = AlgebraElement(E_FLAVOR, grid4, {0: np.full(e.comps[0].shape, np.nan)})
    theta = Curvature2Form(e, e, bad)
    assert math.isnan(theta.norm_inf()) and math.isnan(skew_defect(theta))


def test_invariance_of_products(d_elems, e_elems):
    for a in (*d_elems, *e_elems):
        scale = max(a.norm_inf(), 1.0)
        assert invariance_defect(a) < 1e-11 * scale


def test_derivations_are_leibniz(grid8, rng):
    # products of two inner products double the p-support, and with it the
    # wrap-phase y-frequencies; refinement 8 keeps them inside the band so
    # the identity is exact rather than polluted by unrepresentable modes
    env = smooth_envelope(grid8)
    f, g, h = (random_module_vector(grid8, rng, env) for _ in range(3))
    a, b = inner_D(f, g), inner_D(g, h)
    ab = star(a, b)
    for w in "XYZ":
        lhs = derivation(w, ab)
        rhs = star(derivation(w, a), b) + star(a, derivation(w, b))
        assert element_allclose(lhs, rhs, 1e-10)


def test_derivations_respect_adjoint(d_elems):
    # delta(a*) = (delta a)*: the derivations are real
    a = d_elems[0]
    for w in "XYZ":
        assert element_allclose(derivation(w, adjoint(a)),
                                adjoint(derivation(w, a)), 1e-10)


def test_heisenberg_bracket_of_derivations(d_elems):
    # [delta_X, delta_Y] = c delta_Z and Z is central
    a = d_elems[0]
    com = derivation("X", derivation("Y", a)) \
        - derivation("Y", derivation("X", a))
    assert element_allclose(com, derivation("Z", a), 1e-10)
    for w in "XY":
        zw = derivation("Z", derivation(w, a))
        wz = derivation(w, derivation("Z", a))
        assert element_allclose(zw, wz, 1e-10)


def test_derivations_kill_trace(d_elems):
    a = d_elems[0]
    scale = max(a.norm_inf(), 1.0)
    for w in "XYZ":
        assert abs(trace(derivation(w, a))) < 1e-10 * scale


def test_trace_is_tracial(d_elems):
    a, b, _ = d_elems
    scale = max(a.norm_inf() * b.norm_inf(), 1.0)
    assert abs(trace(star(a, b)) - trace(star(b, a))) < 1e-11 * scale


def test_trace_of_identity(grid4):
    assert abs(trace(AlgebraElement.identity(D_FLAVOR, grid4, 0)) - 1) < 1e-12
    ident_e = AlgebraElement.identity(E_FLAVOR, grid4, 0)
    assert abs(trace(ident_e) - float(grid4.params.su)) < 1e-12


def test_trace_positive(d_elems):
    a = d_elems[0]
    val = trace(star(adjoint(a), a))
    assert abs(val.imag) < 1e-12 * max(abs(val), 1)
    assert val.real > 0


def test_laplacian_matches_nested_derivations(d_elems):
    a = d_elems[0]
    lhs = laplacian(a)
    rhs = derivation("X", derivation("X", a)) \
        + derivation("Y", derivation("Y", a))
    assert element_allclose(lhs, rhs, 1e-12)


def test_mult_element_round_trip(grid4, rng):
    g = random_torus_function(grid4, rng)
    back = TorusFunction(grid4, mult_element(g, 2).component(0, 0)[0])
    assert (back - g).norm_inf() < 1e-12


def test_delta_x_chain_matches_closed_form(grid4):
    # Phi_p(x, y) = g(x) e(m y) with a closed-form x-derivative chain, so
    # delta_X Phi = z (x - p su/2) Phi - dPhi/dy, z = 2 pi i c p, has the
    # chain z (x - p su/2) g^(n) e + n z g^(n-1) e - 2 pi i m g^(n) e.
    grid, p, m = grid4, 2, 1
    k = 2 * math.pi
    xs = (np.arange(grid.nx_unit) * grid.hx_f)[:, None]
    e = np.exp(1j * k * m * np.arange(grid.ny) * grid.hy_f)[None, :]
    g = [np.sin(k * xs) + 0.5 * np.cos(2 * k * xs),
         k * np.cos(k * xs) - k * np.sin(2 * k * xs),
         -k ** 2 * np.sin(k * xs) - 2 * k ** 2 * np.cos(2 * k * xs)]
    a = AlgebraElement(D_FLAVOR, grid, {p: [gn * e for gn in g]})
    z = 1j * k * grid.params.c * p
    shift = xs - p * float(grid.params.su) / 2
    got = derivation("X", a).comps[p]
    assert len(got) == 3
    for n in range(3):
        want = (z * shift * g[n] + n * z * (g[n - 1] if n else 0)
                - 1j * k * m * g[n]) * e
        assert np.max(np.abs(got[n] - want)) < 1e-12 * np.max(np.abs(want))


def test_window_refuses_orders_its_chain_lacks(params):
    # a depth-0 identity has no derivative to read: a deeper window would
    # otherwise repeat the values as if they were the derivatives
    one = AlgebraElement.identity(D_FLAVOR, make_grid(params, 9), depth=0)
    assert np.array_equal(one.eval_window(0, 0, 5, depth=0), np.ones((1, 5, 4)))
    with pytest.raises(ValueError, match="derivative chain exhausted"):
        one.eval_window(0, 0, 5, depth=1)
    # an absent component is zero at any depth
    assert not one.eval_window(1, 0, 5, depth=2).any()

def test_chains_are_single_complex_arrays(grid4, rng):
    # a chain is one (depth + 1, nx, ny) complex array, for fields and for
    # every component of an element, whatever operation made it
    env = smooth_envelope(grid4)
    f, g = (random_module_vector(grid4, rng, env) for _ in range(2))
    phi, psi = inner_D(f, g), inner_E(f, g)
    elems = [phi, psi, star(phi, phi), adjoint(phi), derivation("X", phi)]
    fields = [f, act_right(f, phi), act_left(psi, g),
              (f - g).shift_steps(1)]
    shapes = [(v.chain, (v.depth + 1, v.nx, grid4.ny)) for v in fields]
    shapes += [(c, (e.depth + 1, e.nxd, grid4.ny))
               for e in elems for c in e.comps.values()]
    for chain, shape in shapes:
        assert isinstance(chain, np.ndarray)
        assert chain.dtype == complex and chain.shape == shape
    assert all(e.comps for e in elems) and all(v.nx for v in fields)

    ny, nxd = grid4.ny, grid4.nx_unit
    ragged = [np.zeros((3, ny)), np.zeros((2, ny))]
    for chain in (ragged, np.zeros((1, 3, ny + 1)), np.zeros((3, ny))):
        with pytest.raises(ValueError):
            ScalarField(grid4, 0, chain)
    ragged = [np.zeros((nxd, ny)), np.zeros((nxd - 1, ny))]
    for chain in (ragged, np.zeros((1, nxd, ny + 1)), np.zeros((nxd, ny))):
        with pytest.raises(ValueError):
            AlgebraElement(D_FLAVOR, grid4, {0: chain})


# -- star and the derivations against references ----------------------------
#
# _ref_star multiplies every (q, r) pair of star on the full fundamental
# domain through the program's windows, each term a list of orders, and
# _ref_derivation applies the derivations to whole arrays order by order.
# _closed_form_star is independent of the windows: it evaluates order 0 of
# the convolution formulas point by point, with the wrap phases written out.


def _ref_star(a, b):
    g = a.grid
    comps = {}
    for q in a.p_support:
        aq = a.component(q, a.depth)
        for r in b.p_support:
            p = q + r
            if a.flavor == D_FLAVOR:
                bw = b.eval_window(r, 0, a.nxd, dxs=-q * g.su_steps,
                                   dys=-q * g.sv_steps)
            else:
                bw = b.eval_window(r, 0, a.nxd, dxs=q * g.nx_unit, dys=0)
            term = jets.mul(aq, bw)
            if p in comps:
                dmin = min(len(comps[p]), len(term))
                comps[p] = [x + y for x, y in zip(comps[p][:dmin], term[:dmin])]
            else:
                comps[p] = term
    return AlgebraElement(a.flavor, g, comps)


def _ref_derivation(w, a):
    g = a.grid
    c = g.params.c
    comps = {}
    for p, chain in a.comps.items():
        if w == "Z":
            z = 2j * math.pi * p * c
            comps[p] = [z * arr for arr in chain]
        elif w == "Y":
            comps[p] = [-arr for arr in chain[1:]]
        else:
            z = 2j * math.pi * c * p
            xs = (np.arange(g.nx_unit) * g.hx_f
                  - p * float(g.params.su) / 2)[:, None]
            new = []
            for n, arr in enumerate(chain):
                term = z * xs * arr - spectral_dy(arr, g)
                if n >= 1:
                    term = term + n * z * chain[n - 1]
                new.append(term)
            comps[p] = new
    return AlgebraElement(D_FLAVOR, g, comps)


def _sparse_element(flavor, grid, rng, rows_by_p, depth):
    """Random chains on the given rows of each component; chain entry n
    also fills row 1 + n, so the entries differ in their row supports."""
    nxd = AlgebraElement.domain_steps(flavor, grid)
    comps = {}
    for p, rows in rows_by_p.items():
        chain = []
        for n in range(depth + 1):
            arr = np.zeros((nxd, grid.ny), complex)
            sel = np.unique(np.r_[rows, 1 + n] % nxd)
            arr[sel] = (rng.normal(size=(sel.size, grid.ny))
                        + 1j * rng.normal(size=(sel.size, grid.ny)))
            chain.append(arr)
        comps[p] = chain
    return AlgebraElement(flavor, grid, comps)


def _assert_same_element(a, b):
    assert a.flavor == b.flavor and a.p_support == b.p_support
    for p in a.p_support:
        assert len(a.comps[p]) == len(b.comps[p])
        assert all(np.array_equal(x, y) for x, y in zip(a.comps[p], b.comps[p]))


KERNEL_PARAMS = [Params.from_steps(1, Fraction(1, 4), Fraction(1, 4)),
                 Params.from_steps(2, Fraction(1, 4), Fraction(1, 3))]


@pytest.mark.parametrize("refinement", [3, 9, 27])
@pytest.mark.parametrize("params", KERNEL_PARAMS, ids=["c1", "c2"])
def test_star_and_derivations_match_full_window_bitwise(params, refinement):
    grid = make_grid(params, refinement, pairwise=True)
    rng = np.random.default_rng(refinement)
    R = build_R(params, grid)
    f = random_module_vector(grid, rng, smooth_envelope(grid))
    q = inner_D(R, R)
    dq = [derivation(w, q) for w in "XYZ"]
    elems = {}
    for flavor in (D_FLAVOR, E_FLAVOR):
        nxd = AlgebraElement.domain_steps(flavor, grid)
        # row supports that wrap across x = 0, sit inside the domain, come
        # in two runs, or cover every row; depths 2, 1 and 0
        elems[flavor] = (
            _sparse_element(flavor, grid, rng, {-1: [-1, 0],
                                                0: [nxd // 2],
                                                2: [0, nxd // 2, -2]}, 2),
            _sparse_element(flavor, grid, rng, {0: [-2, -1, 0],
                                                1: list(range(nxd)),
                                                3: [nxd // 3]}, 1),
        )
    d1, d2 = elems[D_FLAVOR]
    e1, e2 = elems[E_FLAVOR]
    d0 = _sparse_element(D_FLAVOR, grid, rng, {-2: [-1, 0, 1], 1: [3]}, 0)
    psi = inner_E(R, f)
    pairs = [(x, y) for x in dq for y in dq]
    pairs += [(d1, d2), (d2, d1), (d1, d1), (q, d2), (d2, q),
              (e1, e2), (e2, e1), (e2, e2), (psi, e1), (e2, psi)]
    for a, b in pairs:
        _assert_same_element(star(a, b), _ref_star(a, b))
    for a in (q, *dq, d1, d2):
        for w in "XYZ":
            _assert_same_element(derivation(w, a), _ref_derivation(w, a))
    # a depth-0 element has no x-derivative left: delta_Y refuses it
    for w in "XZ":
        _assert_same_element(derivation(w, d0), _ref_derivation(w, d0))
    with pytest.raises(ValueError, match="chain exhausted"):
        derivation("Y", d0)



def _closed_form_star(a, b):
    """Order 0 of star(a, b) from the formulas of its docstring, one grid
    point at a time: a value of b off its fundamental domain comes from the
    invariance rule of the flavor, with e(t) = exp(2 pi i t) by cmath,
    D: Phi(x + k, y, p) = e(c k p (y - p sv/2)) Phi(x, y, p),
    E: Psi(x + m su, y, p) = e(c p m (y - m sv/2)) Psi(x, y - m sv, p)."""
    g = a.grid
    c, sv = g.params.c, float(g.params.sv)
    n, ny = a.nxd, g.ny

    def e(t):
        return cmath.exp(2j * math.pi * t)

    out = {}
    for q, aq in a.comps.items():
        for r, br in b.comps.items():
            acc = out.setdefault(q + r, np.zeros((n, ny), complex))
            for i in range(n):
                for j in range(ny):
                    y = j * g.hy_f
                    if a.flavor == D_FLAVOR:
                        # B(x - q su, y - q sv, r), x - q su = x' + k
                        k, i_dom = divmod(i - q * g.su_steps, n)
                        y_b = y - q * sv
                        val = (e(c * k * r * (y_b - r * sv / 2))
                               * br[0, i_dom, (j - q * g.sv_steps) % ny])
                    else:
                        # B(x + q, y, r), x + q = x' + m su
                        m, i_dom = divmod(i + q * g.nx_unit, n)
                        val = (e(c * r * m * (y - m * sv / 2))
                               * br[0, i_dom, (j - m * g.sv_steps) % ny])
                    acc[i, j] += aq[0, i, j] * val
    return out


@pytest.mark.parametrize("refinement", [3, 9])
@pytest.mark.parametrize("params", KERNEL_PARAMS, ids=["c1", "c2"])
def test_star_matches_the_closed_form_convolution(params, refinement):
    # dense depth-0 elements with negative p, so that b is read across
    # several cells on both sides of the fundamental domain
    grid = make_grid(params, refinement)
    rng = np.random.default_rng(refinement)
    for flavor in (D_FLAVOR, E_FLAVOR):
        shape = (1, AlgebraElement.domain_steps(flavor, grid), grid.ny)
        a, b = (AlgebraElement(flavor, grid, {
            p: rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for p in ps}) for ps in ((-2, 0, 1), (-1, 3)))
        got, want = star(a, b), _closed_form_star(a, b)
        assert got.p_support == sorted(want)
        scale = max(np.max(np.abs(w)) for w in want.values())
        for p, w in want.items():
            assert np.max(np.abs(got.comps[p][0] - w)) <= 1e-12 * scale, (flavor, p)


def _assert_members_bitwise(batch, members):
    """Member i of a batched result is members[i] to the batch's depth, to
    the sign of each zero; a component a member lacks is absent or zero."""
    d = batch.depth
    for i, (got, want) in enumerate(zip(batch.members(len(members)), members)):
        want = want.upto(d)
        assert set(got.comps) == {p for p, c in want.comps.items() if c.any()}, i
        for p in got.comps:
            assert bits_equal(got.comps[p], want.comps[p]), (i, p)


@pytest.mark.parametrize("refinement", [3, 9, 27])
@pytest.mark.parametrize("params", KERNEL_PARAMS, ids=["c1", "c2"])
def test_batched_star_matches_its_members_bitwise(params, refinement):
    # Members of several components each, with unequal p-supports, row
    # runs that wrap or split, and depths 2, 1 and 0, and one zero member:
    # a batch against a batch, and each against an unbatched element.
    grid = make_grid(params, refinement, pairwise=True)
    rng = np.random.default_rng(100 + refinement)
    R = build_R(params, grid)
    f = random_module_vector(grid, rng, smooth_envelope(grid))
    members = {}
    for flavor in (D_FLAVOR, E_FLAVOR):
        nxd = AlgebraElement.domain_steps(flavor, grid)
        members[flavor] = [
            _sparse_element(flavor, grid, rng, {-1: [-1, 0], 0: [nxd // 2],
                                                2: [0, nxd // 2, -2]}, 2),
            _sparse_element(flavor, grid, rng, {0: [-2, -1, 0],
                                                1: list(range(nxd))}, 1),
            AlgebraElement.zero(flavor, grid),
            _sparse_element(flavor, grid, rng, {-2: [-1, 0, 1], 1: [3]}, 0),
        ]
    members[D_FLAVOR].append(inner_D(R, f))
    members[E_FLAVOR].append(inner_E(f, R))
    for elems in members.values():
        assert len({tuple(e.p_support) for e in elems}) == len(elems)
        others = elems[1:] + elems[:1]
        batch, other = AlgebraElement.stack(elems), AlgebraElement.stack(others)
        _assert_members_bitwise(star(batch, other),
                                [star(a, b) for a, b in zip(elems, others)])
        for single in (elems[0], elems[-1]):
            _assert_members_bitwise(star(batch, single),
                                    [star(a, single) for a in elems])
            _assert_members_bitwise(star(single, batch),
                                    [star(single, b) for b in elems])

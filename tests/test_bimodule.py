"""Equivalence-bimodule structure tests.

The load-bearing identity is imprimitivity, <f,g>_E . h = f . <g,h>_D,
which ties both inner products and both actions together and fails if any
single phase or translation convention is wrong.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from qhm import jets, morita
from qhm.algebra import (AlgebraElement, D_FLAVOR, E_FLAVOR, adjoint,
                         derivation, star, trace, window)
from qhm.bimodule import act_left, act_right, inner_D, inner_E
from qhm.calculus import curvature_closed
from qhm.lattice import Grid, Params, ScalarField, make_grid, y_bandwidth
from qhm.projection import build_R
from qhm.random_fields import random_module_vector, smooth_envelope

from oracles import (bits_equal, conj_field, gathered_act_right, make_battery,
                     phased_eval_row, phased_inner_D, phased_inner_E,
                     phased_window, pointwise_mul)


@pytest.fixture()
def vectors(grid4, rng):
    env = smooth_envelope(grid4)
    return [random_module_vector(grid4, rng, env) for _ in range(3)]


def test_inner_products_are_conjugate_symmetric(vectors):
    f, g, _ = vectors
    assert (adjoint(inner_D(f, g)) - inner_D(g, f)).norm_inf() < 1e-12
    assert (adjoint(inner_E(f, g)) - inner_E(g, f)).norm_inf() < 1e-12


def test_inner_products_sesquilinear(grid4, vectors):
    f, g, h = vectors
    z = 0.7 - 0.3j
    lhs = inner_D(f, g.scaled(z) + h)
    rhs = inner_D(f, g).scaled(np.conj(z)) + inner_D(f, h)
    assert (lhs - rhs).norm_inf() < 1e-11


def test_imprimitivity(vectors):
    f, g, h = vectors
    lhs = act_left(inner_E(f, g), h)
    rhs = act_right(f, inner_D(g, h))
    scale = max(lhs.norm_inf(), 1.0)
    assert (lhs - rhs).norm_inf() < 1e-11 * scale


def test_left_action_is_module_action(vectors):
    f, g, h = vectors
    psi = inner_E(f, g)
    lhs = act_left(psi, act_left(psi, h))
    rhs = act_left(star(psi, psi), h)
    assert (lhs - rhs).norm_inf() < 1e-10 * max(lhs.norm_inf(), 1.0)


def test_right_action_is_module_action(vectors):
    f, g, h = vectors
    phi = inner_D(f, g)
    lhs = act_right(act_right(h, phi), phi)
    rhs = act_right(h, star(phi, phi))
    assert (lhs - rhs).norm_inf() < 1e-10 * max(lhs.norm_inf(), 1.0)


def test_inner_d_compatible_with_right_action(vectors):
    # <f.phi, g>_D = phi* <f,g>_D   and   <f, g.phi>_D = <f,g>_D phi
    f, g, h = vectors
    phi = inner_D(g, h)
    lhs = inner_D(act_right(f, phi), g)
    rhs = star(adjoint(phi), inner_D(f, g))
    assert (lhs - rhs).norm_inf() < 1e-10 * max(lhs.norm_inf(), 1.0)
    lhs2 = inner_D(f, act_right(g, phi))
    rhs2 = star(inner_D(f, g), phi)
    assert (lhs2 - rhs2).norm_inf() < 1e-10 * max(lhs2.norm_inf(), 1.0)


def test_traces_agree_through_the_bimodule(vectors):
    # tau_D(<f,f>_D) = tau_E(<f,f>_E): the bimodule links the two traces
    f = vectors[0]
    a = trace(inner_D(f, f))
    b = trace(inner_E(f, f))
    assert abs(a - b) < 1e-11 * max(abs(a), 1)
    assert a.real > 0 and abs(a.imag) < 1e-12 * max(abs(a), 1)


def test_battery_is_deterministic(grid4):
    a = make_battery(grid4, 3, seed=7)
    b = make_battery(grid4, 3, seed=7)
    for u, v in zip(a, b):
        assert (u - v).norm_inf() == 0.0


def test_battery_refuses_a_grid_without_its_pairwise_band(params, grid2):
    # pairs of battery vectors need 2 * 7 + 1 y-samples here; the tied
    # refinement-2 grid (ny = 8) and solve's grid (ny = 4) have fewer, and a
    # battery drawn there would be aliased or quietly weakened
    need = 2 * y_bandwidth(params, pairwise=True) + 1
    for grid in (grid2, make_grid(params, 9)):
        assert grid.ny < need
        with pytest.raises(ValueError, match="pairwise"):
            make_battery(grid, 1, seed=0)
    assert len(make_battery(make_grid(params, 2, pairwise=True), 1, 0)) == 1


# -- the kernels against the direct per-translate sums ----------------------
#
# The references below sum over every (p, k) pair on full fundamental-domain
# windows and evaluate components row by row.  The kernels restrict each
# translate to the rows where both factors are supported and fold by
# slicing; they make the same products in the same order, so the results
# must agree bit for bit.


def _ref_eval(a, p, i_lo, i_hi, dxs=0, dys=0):
    g = a.grid
    N = a.nxd
    chain = a.component(p, a.depth)
    out = [np.zeros((i_hi - i_lo, g.ny), complex) for _ in chain]
    if p in a.comps:
        gi = np.arange(i_lo + dxs, i_hi + dxs)
        blocks = np.floor_divide(gi, N)
        for k in np.unique(blocks):
            sel = blocks == k
            # value(x + k period) = phase * samples, D: twist(k, p), E: twist(p, k)
            ph = (g.twist(int(k), p) if a.flavor == D_FLAVOR
                  else g.twist(p, int(k)))[None, :]
            for n, arr in enumerate(chain):
                vals = arr[gi[sel] - k * N, :]
                if a.flavor == E_FLAVOR and k:
                    vals = np.roll(vals, int(k) * g.sv_steps, axis=1)
                out[n][sel, :] = vals * ph
    if dys:
        out = [np.roll(x, -dys, axis=1) for x in out]
    return out


def _ref_phase(c, a, b, ys, sv, sign):
    return np.exp(sign * 2j * math.pi * c * a * b * (ys - b * sv / 2))


def _ref_inner(f, g, flavor):
    grid = f.grid
    N, S, V = grid.nx_unit, grid.su_steps, grid.sv_steps
    sv = float(grid.params.sv)
    ys = np.arange(grid.ny) * grid.hy_f
    d = min(f.depth, g.depth)
    if flavor == D_FLAVOR:
        ps = range(-((g.i1 - f.i0 - 1) // S) - 1, (f.i1 - g.i0 - 1) // S + 2)
        ks = range(f.i0 // N, (f.i1 - 1) // N + 1)
    else:
        ps = range(-((f.i1 - g.i0 - 1) // N) - 1, (g.i1 - f.i0 - 1) // N + 2)
        ks = range(-((f.i1 - 1) // S) - 1, (S - 1 - f.i0) // S + 2)
    comps = {}
    for p in ps:
        acc = None
        for k in ks:
            if flavor == D_FLAVOR:
                a = [f.window(k * N, (k + 1) * N)[n] for n in range(d + 1)]
                b = [np.conj(np.roll(g.window(k * N - p * S, (k + 1) * N - p * S)[n],
                                     p * V, axis=1)) for n in range(d + 1)]
                ph = _ref_phase(grid.params.c, k, p, ys, sv, -1)[None, :]
            else:
                a = [np.conj(np.roll(f.window(-k * S, S - k * S)[n], k * V, axis=1))
                     for n in range(d + 1)]
                b = [np.roll(g.window(p * N - k * S, p * N + S - k * S)[n], k * V,
                             axis=1) for n in range(d + 1)]
                ph = _ref_phase(grid.params.c, p, k, ys, sv, +1)[None, :]
            if not (np.any(a[0]) and np.any(b[0])):
                continue
            term = [t * ph for t in jets.mul(a, b)]
            acc = term if acc is None else [x + y for x, y in zip(acc, term)]
        if acc is not None:
            comps[p] = acc
    return AlgebraElement(flavor, grid, comps)


def _ref_act_left(psi, f):
    grid = f.grid
    acc = ScalarField.zeros(grid, min(psi.depth, f.depth))
    for q in psi.p_support:
        fs = f.shift_steps(q * grid.nx_unit)
        if fs.nx:
            w = ScalarField(grid, fs.i0, _ref_eval(psi, q, fs.i0, fs.i1))
            acc = acc + pointwise_mul(conj_field(w), fs)
    return acc.trimmed()


def _ref_act_right(g, phi):
    grid = g.grid
    acc = ScalarField.zeros(grid, min(phi.depth, g.depth))
    for q in phi.p_support:
        gs = ScalarField(grid, g.i0 - q * grid.su_steps,
                         np.roll(g.chain, -q * grid.sv_steps, axis=-1))
        if gs.nx:
            w = _ref_eval(phi, q, gs.i0, gs.i1, q * grid.su_steps, q * grid.sv_steps)
            acc = acc + pointwise_mul(gs, conj_field(ScalarField(grid, gs.i0, w)))
    return acc.trimmed()


def _assert_same_chain(a, b):
    assert len(a) == len(b)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def _assert_same_element(a, b):
    assert a.flavor == b.flavor and a.p_support == b.p_support
    for p in a.p_support:
        _assert_same_chain(a.comps[p], b.comps[p])


def _assert_same_field(u, v):
    assert (u.i0, u.nx) == (v.i0, v.nx)
    _assert_same_chain(u.chain, v.chain)


KERNEL_PARAMS = [Params.from_steps(1, Fraction(1, 4), Fraction(1, 4)),
                 Params.from_steps(2, Fraction(1, 4), Fraction(1, 3))]


@pytest.mark.parametrize("refinement", [3, 9, 27])
@pytest.mark.parametrize("params", KERNEL_PARAMS, ids=["c1", "c2"])
def test_kernels_match_direct_sums_bitwise(params, refinement):
    grid = make_grid(params, refinement, pairwise=True)
    rng = np.random.default_rng(refinement)
    R = build_R(params, grid)
    env = smooth_envelope(grid)
    f, g = (random_module_vector(grid, rng, env) for _ in range(2))
    for u, v in ((R, f), (f, R), (f, g)):
        phi = inner_D(u, v)
        _assert_same_element(phi, _ref_inner(u, v, D_FLAVOR))
        psi = inner_E(u, v)
        _assert_same_element(psi, _ref_inner(u, v, E_FLAVOR))
        for a in (phi, star(phi, phi), psi):
            for p in a.p_support:
                for shift in ((0, 0), (grid.su_steps, grid.sv_steps),
                              (-grid.nx_unit - 1, 1)):
                    _assert_same_chain(a.eval_window(p, v.i0, v.i1, *shift),
                                       _ref_eval(a, p, v.i0, v.i1, *shift))
        _assert_same_field(act_right(v, phi), _ref_act_right(v, phi))
        _assert_same_field(act_left(psi, u), _ref_act_left(psi, u))
        for w in "XYZ":
            (got,) = act_right(u, phi, w).members()
            _assert_same_field(got, _ref_act_right(u, derivation(w, phi)))


# -- the skipping kernels against the kernels that skip nothing --------------
#
# inner_D, inner_E, act_right and algebra.window skip the multiply by a unit
# twist phase (a b = 0) and the y-gather by a roll of 0 mod ny; the
# references of oracles make both.  Every accumulator starts at +0, so the
# pairings and the action agree bit for bit; a window can differ from the
# product by a unit phase only in the sign of a zero part.


@pytest.mark.parametrize("refinement", [3, 9])
@pytest.mark.parametrize("params", KERNEL_PARAMS, ids=["c1", "c2"])
def test_skipping_kernels_match_the_kernels_that_skip_nothing(params, refinement):
    grid = make_grid(params, refinement, pairwise=True)
    rng = np.random.default_rng(200 + refinement)
    N, S, V = grid.nx_unit, grid.su_steps, grid.sv_steps
    R = build_R(params, grid)
    env = smooth_envelope(grid)
    f, g = (random_module_vector(grid, rng, env) for _ in range(2))
    # the supports cross x = 0, a cell edge of both flavors
    assert all(w.i0 < 0 < w.i1 for w in (R, f, g))
    for u, v in ((R, f), (f, R), (f, g)):
        for got, want in ((inner_D(u, v), phased_inner_D(u, v)),
                          (inner_E(u, v), phased_inner_E(u, v))):
            assert got.p_support == want.p_support
            assert all(bits_equal(got.comps[p], want.comps[p]) for p in got.p_support)
        phi, psi = inner_D(u, v), inner_E(u, v)
        got, want = act_right(v, phi), gathered_act_right(v, phi)
        assert (got.i0, got.nx) == (want.i0, want.nx)
        assert bits_equal(got.chain, want.chain)
        for a in (phi, psi):
            for p in a.p_support:
                for i_lo, i_hi, dxs, dys in ((-2 * N - 3, N + 5, 0, 0),
                                             (v.i0, v.i1, S, V),
                                             (0, a.nxd, -N - 1, 1)):
                    args = (a.comps[p], a.flavor, grid, p, i_lo, i_hi, a.depth, dxs, dys)
                    assert np.array_equal(window(*args), phased_window(*args))
    # f and g are far enough apart for E to pair them at p != 0 too
    assert any(inner_E(f, g).p_support)


@pytest.mark.parametrize("refinement", [2, 8])
@pytest.mark.parametrize("params", KERNEL_PARAMS, ids=["c1", "c2"])
def test_morita_rows_match_the_rows_that_multiply_every_phase(params, refinement):
    # SpectralVector.eval_row skips a unit phase (p k = 0) by the kernels'
    # rule; the rows of all four spaces (p = -1, 0, 1, 0) agree with the
    # rows that multiply every phase, across cells on both sides of the
    # domain, and the source spaces read every (1/su)-th row backwards as
    # S and H read them
    grid = Grid(params, make_grid(params, refinement).hx,
                Fraction(1, morita.s_y_samples(params)))
    f_terms, phi_terms = morita.draw_terms(morita.term_streams(0), 2, 2)
    f = morita.random_source_vector(grid, f_terms)
    phi = morita.random_invariant_function(grid, phi_terms)
    inv_su = morita.rescale_factor(grid)
    for v, m in ((f, inv_su), (phi, inv_su), (morita.map_S(f), 1),
                 (morita.map_H(phi), 1)):
        n = v.nx
        for lo, hi, stride in ((-2 * n - 3, n + 5, 1), (-n, 2 * n, -m),
                               (n - 1, n + 2, 1)):
            assert np.array_equal(v.eval_row(lo, hi, stride),
                                  phased_eval_row(v, lo, hi, stride)), v.tag


# -- batches against their members --------------------------------------------
#
# A batch passes through each kernel as one call on one more axis.  Its
# members are zero-padded to the union of their p-supports and row supports,
# and every accumulator starts at +0 and only adds, so member i of a batched
# result must equal the unbatched call on member i bit for bit.

BATCH_PARAMS = [Params.from_steps(1, Fraction(1, 4), Fraction(1, 4)),
                Params.from_steps(2, Fraction(1, 4), Fraction(1, 3)),
                Params.from_steps(3, Fraction(1, 5), Fraction(1, 3))]


def _stack_fields(fields):
    """One batched field on the union of the members' rows, zero-padded."""
    live = [v for v in fields if v.nx]
    lo, hi = min(v.i0 for v in live), max(v.i1 for v in live)
    d = min(v.depth for v in fields)
    return ScalarField(fields[0].grid, lo,
                       np.stack([v.window(lo, hi)[:d + 1] for v in fields], axis=2))


def _assert_batch_of_fields(batch, members):
    assert batch.chain.shape[2] == len(members)
    for i, m in enumerate(members):
        if m.nx:
            assert batch.i0 <= m.i0 and m.i1 <= batch.i1
        d = min(batch.depth, m.depth)
        want = m.window(batch.i0, batch.i1)[:d + 1]
        assert np.array_equal(batch.chain[:d + 1, :, i], want), i


def _assert_batch_of_elements(batch, members):
    d = batch.depth
    got = batch.members(len(members))
    for i, m in enumerate(members):
        assert set(got[i].comps) <= set(m.comps), i
        for p in set(batch.comps) | set(m.comps):
            want = m.component(p, d)
            assert np.array_equal(got[i].component(p, d), want), (i, p)


@pytest.mark.parametrize("refinement", [3, 9, 27])
@pytest.mark.parametrize("params", BATCH_PARAMS, ids=["c1", "c2", "c3"])
def test_batched_kernels_match_their_members_bitwise(params, refinement):
    grid = make_grid(params, refinement, pairwise=True)
    rng = np.random.default_rng(refinement)
    R = build_R(params, grid)
    env = smooth_envelope(grid)
    f, g = (random_module_vector(grid, rng, env) for _ in range(2))
    zero_field = ScalarField.zeros(grid, R.depth)
    # members with unequal p-supports and row supports, one all zero
    phis = [inner_D(R, f), AlgebraElement.zero(D_FLAVOR, grid), inner_D(f, g),
            inner_D(R, R)]
    psi = inner_E(g, f)
    psis = [inner_E(f, R), star(psi, psi), AlgebraElement.zero(E_FLAVOR, grid),
            psi]
    fields = [f, zero_field, R, g]
    assert len({tuple(e.p_support) for e in phis}) == 4
    assert len({tuple(e.p_support) for e in psis}) == 4
    assert len({(v.i0, v.i1) for v in fields}) == 4
    phi_b, psi_b = AlgebraElement.stack(phis), AlgebraElement.stack(psis)
    field_b = _stack_fields(fields)
    _assert_batch_of_elements(phi_b, phis)
    _assert_batch_of_elements(psi_b, psis)

    for u in (R, f):
        _assert_batch_of_fields(act_left(psi_b, u),
                                [act_left(psi, u) for psi in psis])
        _assert_batch_of_fields(act_left(psis[0], field_b),
                                [act_left(psis[0], v) for v in fields])
        _assert_batch_of_elements(inner_D(u, field_b),
                                  [inner_D(u, v) for v in fields])
        _assert_batch_of_elements(inner_D(field_b, u),
                                  [inner_D(v, u) for v in fields])
        _assert_batch_of_elements(inner_E(u, field_b),
                                  [inner_E(u, v) for v in fields])
        _assert_batch_of_elements(inner_E(field_b, u),
                                  [inner_E(v, u) for v in fields])
        _assert_batch_of_fields(act_right(u, phi_b),
                                [act_right(u, phi) for phi in phis])
        _assert_batch_of_fields(act_right(field_b, phis[0]),
                                [act_right(v, phis[0]) for v in fields])
        # a sequence of directions batches direction by direction
        for w in ("X", "Y", "Z", ("Y", "X")):
            _assert_batch_of_fields(act_right(u, phi_b, w),
                                    [act_right(u, phi, v).members()[0]
                                     for v in w for phi in phis])
        _assert_batch_of_fields(act_right(u, phis[0], ("X", "Z", "Y")),
                                [act_right(u, phis[0], w).members()[0]
                                 for w in "XZY"])


@pytest.mark.parametrize("depth", range(4))
def test_batched_mul_matches_its_members_bitwise(depth):
    # a batch against a singleton batch axis, as the kernels pair a batch
    # with an unbatched operand, and against a batch of its own
    rng = np.random.default_rng(200 + depth)
    shape = (depth + 1, 6, 3, 5)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b = rng.normal(size=(depth + 2, 6, 5)) - 1j * rng.normal(size=(depth + 2, 6, 5))
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    a[:, :, 1] = 0.0
    for x, y in ((a, b[:, :, None]), (b[:, :, None], a), (a, c)):
        got = jets.mul(x, y)
        for i in range(3):
            want = jets.mul(x[:, :, min(i, x.shape[2] - 1)],
                            y[:, :, min(i, y.shape[2] - 1)])
            assert np.array_equal(got[:, :, i], want)


@pytest.mark.parametrize("refinement", [1, 2, 4])
def test_zero_right_action_keeps_its_batch_axis(params, refinement):
    # Below the first interior ramp sample Q = <R,R>_D is constant, so every
    # delta_W annihilates it; the zero result still carries the batch axis
    # that a sequence of directions or a batched element asks for, where
    # the members are indexed before y.
    grid = make_grid(params, refinement)
    R = build_R(params, grid)
    Q = inner_D(R, R)
    assert Q.comps and all(not derivation(w, Q).comps for w in "XYZ")
    QQ = AlgebraElement.stack([Q, Q])
    cases = [(Q, ("X", "Y", "Z"), 3), (QQ, ("X", "Y", "Z"), 6), (QQ, "Y", 2),
             (Q, "X", 1), (AlgebraElement.zero(D_FLAVOR, grid), ("X", "Y"), 2)]
    for phi, w, batch in cases:
        v = act_right(R, phi, w)
        assert (v.nx, v.chain.shape[2:]) == (0, (batch, grid.ny))
    assert curvature_closed(R).norm_inf() == 0.0


@pytest.mark.parametrize("refinement", [9, 27])
def test_zero_left_action_keeps_its_batch_axis(params, refinement):
    # a vector of no rows gives no rows, with the batch axis that a batched
    # psi gives on a vector that has rows
    grid = make_grid(params, refinement)
    R = build_R(params, grid)
    psi = AlgebraElement.stack([inner_E(R, R)] * 3)
    full = act_left(psi, R)
    assert full.chain.shape[2:] == (3, grid.ny)
    zero = act_left(psi, ScalarField.zeros(grid, 2))
    assert (zero.nx, zero.chain.shape[2:]) == (0, (3, grid.ny))
    assert act_left(inner_E(R, R), ScalarField.zeros(grid, 2)).chain.shape[2:] \
        == (grid.ny,)


@pytest.mark.parametrize("refinement", [3, 9, 27])
@pytest.mark.parametrize("params", BATCH_PARAMS, ids=["c1", "c2", "c3"])
def test_derived_right_action_reads_only_its_rows_bitwise(params, refinement):
    # act_right along w derives phi only on the fundamental-domain rows
    # that the windows of g's rows read; it must give, to the sign of each
    # zero, act_right on the element derived on every row.  The vectors
    # wrap across x = 0 (R), sit inside one unit, and span more than a
    # unit, where every row is derived.
    grid = make_grid(params, refinement, pairwise=True)
    N = grid.nx_unit
    rng = np.random.default_rng(300 + refinement)
    R = build_R(params, grid)

    def field(i0, nx):
        shape = (3, nx, grid.ny)
        return ScalarField(grid, i0, rng.normal(size=shape)
                           + 1j * rng.normal(size=shape))

    inside, wide = field(1, max(1, N // 3)), field(-2, N + 3)
    assert R.i0 < 0 < R.i1 and R.nx < N
    phi = inner_D(R, wide)
    phi_b = AlgebraElement.stack([phi, inner_D(R, R)])
    for v in (R, inside, wide):
        for a in (phi, phi_b):
            derived = {w: act_right(v, derivation(w, a)) for w in "XYZ"}
            for w in "XYZ":
                # along one direction an unbatched phi gives a batch of one
                got = act_right(v, a, w)
                want = derived[w].chain
                assert (got.i0, got.nx) == (derived[w].i0, derived[w].nx)
                assert bits_equal(got.chain, want.reshape(got.chain.shape))
        seq = act_right(v, phi, ("X", "Y", "Z"))
        d = seq.depth
        for k, w in enumerate("XYZ"):
            want = act_right(v, derivation(w, phi)).window(seq.i0, seq.i1)
            assert bits_equal(seq.chain[:, :, k], want[:d + 1]), w

"""Equivalence maps S and H: preservation identities and membership."""

import math

import numpy as np
import pytest

from fractions import Fraction

from qhm import lattice, morita
from qhm.algebra import D_FLAVOR, E_FLAVOR, AlgebraElement, window
from qhm.lattice import Grid, Params, make_grid
from qhm.morita import (BETA_INVARIANT, E_FIRST, E_FIXED, X_BETA_USTAR_ALPHA,
                        MoritaGridError, SpectralVector, draw_terms, map_H,
                        map_S, membership_transport_defect,
                        random_invariant_function, random_source_vector,
                        rescale_factor, s_y_samples, source_inner_L,
                        source_inner_R, source_left, source_right,
                        target_inner_L, target_inner_R, target_left,
                        target_right, term_streams,
                        verify_bimodule_preservation)

from oracles import (BrokenUnitaryVector, broken_source_vector,
                     inject_broken_unitary)


def morita_grid(params, refinement):
    """The grid of `qhm morita`: make_grid's x-step and ny = |2c/sv|."""
    return Grid(params, make_grid(params, refinement).hx,
                Fraction(1, s_y_samples(params)))


def test_rescale_factor(grid2):
    assert rescale_factor(grid2) == 4


def test_rescale_factor_rejects_non_integer():
    p = Params.from_steps(1, Fraction(2, 5), Fraction(2, 5))
    grid = make_grid(p, 2)
    with pytest.raises(MoritaGridError):
        rescale_factor(grid)


def _translate_defect(f, terms):
    """max |f - want| on x in [1, 2), relative to the seeds, where want is
    the sum of the seed s's two translates there, from the closed form of
    the twisted subspace: s(x, y) + e(-c(y - sv/2)) s(x - 1, y - sv)."""
    g = f.grid
    seed = morita._source_seeds(g, terms)
    phase = np.exp(-2j * math.pi * g.params.c * (g.ys - float(g.params.sv) / 2))
    want = seed[:, g.nx_unit:] + phase * np.roll(seed[:, :g.nx_unit],
                                                 g.sv_steps, axis=-1)
    return np.max(np.abs(f.eval_row(f.nx, 2 * f.nx) - want)) / np.max(np.abs(seed))


def test_source_vectors_are_members(grid2):
    (f_terms,) = draw_terms(term_streams(0), 5, 1)
    assert _translate_defect(random_source_vector(grid2, f_terms), f_terms) < 1e-12


def test_broken_vector_is_not_a_member(grid2):
    # the oracle above sees a unit translate whose phase is off by e(0.05),
    # both on the samples alone and with the same wrong unitary extending them
    (f_terms,) = draw_terms(term_streams(0), 5, 1)
    broken = broken_source_vector(grid2, f_terms, 0.05)
    for f in (broken, SpectralVector(grid2, broken.samples, broken.tag)):
        assert _translate_defect(f, f_terms) > 1e-3


def test_s_maps_into_first_subspace(grid2):
    (f_terms,) = draw_terms(term_streams(0), 1, 1)
    f = random_source_vector(grid2, f_terms)
    sf = map_S(f)
    assert sf.tag == E_FIRST
    scale = max(np.max(np.abs(f.samples)), 1)
    assert membership_transport_defect(f, sf) < 1e-12 * scale


@pytest.mark.parametrize("c, sv, ny", [
    (1, Fraction(1, 4), 32), (2, Fraction(2, 5), 20), (1, Fraction(2, 5), 5),
    (1, Fraction(2, 5), 10)])
def test_s_refuses_a_grid_where_it_is_not_y_periodic(c, sv, ny):
    # S(f)(x, y + 1) = e(c(2y + 1)/sv) S(f)(x, y): periodic on the samples
    # iff c/sv is an integer and ny divides 2c/sv.  On the refinement-tied
    # ny = 32 of refinement 8 (first case) membership_transport read 11.56.
    grid = Grid(Params.from_steps(c, Fraction(1, 4), sv), Fraction(1, 32),
                Fraction(1, ny))
    (f_terms,) = draw_terms(term_streams(0), 1, 1)
    f = random_source_vector(grid, f_terms)
    with pytest.raises(MoritaGridError):
        map_S(f)
    with pytest.raises(MoritaGridError):  # before it reads the S(f) given
        membership_transport_defect(f, f)


@pytest.mark.parametrize("refinement", [2, 3, 8])
@pytest.mark.parametrize("c, su, sv", [
    (1, Fraction(1, 4), Fraction(1, 4)), (2, Fraction(1, 4), Fraction(1, 4)),
    (3, Fraction(1, 4), Fraction(1, 3)), (2, Fraction(1, 4), Fraction(1, 3)),
    (2, Fraction(1, 4), Fraction(2, 5)), (1, Fraction(1, 5), Fraction(1, 3))])
def test_preservation_holds_on_the_morita_grid(c, su, sv, refinement):
    grid = morita_grid(Params.from_steps(c, su, sv), refinement)
    assert grid.ny == 2 * c / sv
    rep = verify_bimodule_preservation(grid, sample_count=20, seed=9201, tol=1e-10)
    for name, chk in rep["checks"].items():
        assert chk["violation"] <= 1e-13, name


def test_a_nan_violation_fails(grid2, monkeypatch):
    # max(0.0, nan) is 0.0: a NaN behind a number must not read as a pass.
    # One sample of grid2 holds 2 * 8 * 8 = 128 seed points, so this budget
    # makes two batches of one, each measuring f and then g; the NaN is
    # the second batch's g.
    values = iter([0.0, 0.0, 0.0, float("nan")])
    monkeypatch.setattr(morita, "membership_transport_defect",
                        lambda f, sf=None: next(values))
    monkeypatch.setattr(lattice, "GRID_BUDGET", 128)
    rep = verify_bimodule_preservation(grid2, sample_count=2, seed=0, tol=1e-10)
    chk = rep["checks"]["membership_transport"]
    assert math.isnan(chk["violation"]) and not chk["pass"]
    assert not rep["all_pass"]


def test_four_preservation_identities(grid2):
    f_terms, g_terms, phi_terms = draw_terms(term_streams(0), 1, 3)
    f = random_source_vector(grid2, f_terms)
    g = random_source_vector(grid2, g_terms)
    phi = random_invariant_function(grid2, phi_terms)
    sf, sg, hphi = map_S(f), map_S(g), map_H(phi)

    def dev(a, b):
        return float(np.max(np.abs(a.samples - b.samples)))

    assert dev(map_S(source_left(phi, f)), target_left(hphi, sf)) < 1e-11
    assert dev(map_S(source_right(f, phi)), target_right(sf, hphi)) < 1e-11
    assert dev(map_H(source_inner_L(f, g)), target_inner_L(sf, sg)) < 1e-11
    assert dev(map_H(source_inner_R(f, g)), target_inner_R(sf, sg)) < 1e-11


def test_inner_r_needs_both_arguments_shifted(grid2):
    # the variant shifting only the first argument breaks the identity
    f_terms, g_terms = draw_terms(term_streams(0), 1, 2)
    f = random_source_vector(grid2, f_terms)
    g = random_source_vector(grid2, g_terms)
    m = rescale_factor(grid2)
    step = m * grid2.nx_unit
    out = np.conj(f.eval_row(step, f.nx + step)) * g.samples
    wrong = SpectralVector(grid2, out, BETA_INVARIANT)
    dev = float(np.max(np.abs(
        map_H(wrong).samples - target_inner_R(map_S(f), map_S(g)).samples)))
    assert dev > 1e-2


def test_verification_clean(grid2):
    rep = verify_bimodule_preservation(grid2, sample_count=5, seed=3, tol=1e-10)
    assert rep["all_pass"]
    for name, chk in rep["checks"].items():
        assert chk["violation"] < 1e-11, name


def test_verification_flags_broken_unitary(grid2, monkeypatch):
    inject_broken_unitary(monkeypatch, 0.07)
    rep = verify_bimodule_preservation(grid2, sample_count=5, seed=3, tol=1e-10)
    assert not rep["all_pass"]
    failing = {name for name, chk in rep["checks"].items() if not chk["pass"]}
    assert failing == {"inner_left", "inner_right", "membership_transport"}


def test_verification_deterministic(grid2):
    a = verify_bimodule_preservation(grid2, sample_count=4, seed=11, tol=1e-10)
    b = verify_bimodule_preservation(grid2, sample_count=4, seed=11, tol=1e-10)
    assert a == b


@pytest.mark.parametrize("budget", [1, 3 * 128, 7 * 128 + 5])
def test_sample_batches_respect_the_grid_budget(grid2, monkeypatch, budget):
    # one sample of grid2 holds 2 * 8 * 8 = 128 seed points, so these
    # budgets cut the 20 samples into batches of 1, 3 and 7
    inject_broken_unitary(monkeypatch, 0.07)
    whole = verify_bimodule_preservation(grid2, sample_count=20, seed=9201, tol=1e-10)
    calls = []

    def counting(eval_row):
        def counted(self, *rows):
            calls.append(self.samples.shape[0])
            return eval_row(self, *rows)
        return counted

    for cls in (SpectralVector, BrokenUnitaryVector):
        monkeypatch.setattr(cls, "eval_row", counting(cls.eval_row))
    monkeypatch.setattr(lattice, "GRID_BUDGET", budget)
    chunked = verify_bimodule_preservation(grid2, sample_count=20, seed=9201, tol=1e-10)
    batch = max(1, budget // 128)
    assert max(calls) == batch
    assert len(calls) == 15 * -(-20 // batch)
    assert chunked == whole


class _Counting:
    """A Generator whose every method call is appended to `calls`."""

    def __init__(self, gen, calls):
        self.gen, self.calls = gen, calls

    def __getattr__(self, name):
        method = getattr(self.gen, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("budget", [None, 7 * 512])
def test_each_chunk_draws_with_a_fixed_number_of_generator_calls(
        params, monkeypatch, budget):
    # one call per stream and chunk, whatever the chunk's sample count; a
    # loop of scalar draws made 4 per term, 48 per sample.  One sample of
    # the refinement-8 grid holds 2 * 32 * 8 = 512 seed points, so the
    # budget 7 * 512 cuts the 20 samples into chunks of 7, 7 and 6.
    grid = morita_grid(params, 8)
    whole = verify_bimodule_preservation(grid, sample_count=20, seed=9201, tol=1e-10)
    if budget is not None:
        monkeypatch.setattr(lattice, "GRID_BUDGET", budget)
    calls, per_chunk = [], []
    streams, draw = morita.term_streams, morita.draw_terms

    def counting(seed):
        return [_Counting(gen, calls) for gen in streams(seed)]

    def drawing(gens, count, kinds):
        before = len(calls)
        out = draw(gens, count, kinds)
        per_chunk.append((count, calls[before:]))
        return out

    monkeypatch.setattr(morita, "term_streams", counting)
    monkeypatch.setattr(morita, "draw_terms", drawing)
    rep = verify_bimodule_preservation(grid, sample_count=20, seed=9201, tol=1e-10)
    assert [count for count, _ in per_chunk] == ([20] if budget is None
                                                 else [7, 7, 6])
    for _, made in per_chunk:
        assert made == ["integers", "standard_normal"]
    assert rep == whole


@pytest.mark.parametrize("sizes", [[20], [1] * 20, [3] * 6 + [2], [7, 7, 6],
                                   [13, 7]])
def test_draws_do_not_depend_on_the_chunk_sizes(sizes):
    streams = term_streams(9201)
    chunks = [draw_terms(streams, size, 3) for size in sizes]
    whole = draw_terms(term_streams(9201), 20, 3)
    for kind, ref in enumerate(whole):
        for name in ref._fields:
            got = np.concatenate([getattr(c[kind], name) for c in chunks])
            assert np.array_equal(got, getattr(ref, name)), (kind, name)
    assert whole[0].n.shape == (20, morita.TERMS)
    assert np.iscomplexobj(whole[0].coef)


def _random_source_reference(grid, n, m, coef, broken_shift=0.0):
    """One source vector from its term rows, term by term: coef_t times
    the x-factor w(x) e(n_t x/2) times the y-character e(m_t y)."""
    g = grid
    nxu = g.nx_unit
    xs = np.arange(2 * nxu) / nxu
    window = np.sin(math.pi * xs / 2.0) ** 2
    seed = np.zeros((2 * nxu, g.ny), complex)
    for nt, mt, ct in zip(n.tolist(), m.tolist(), coef.tolist()):
        ex = ct * (window * np.exp(2j * math.pi * nt * xs / 2.0))
        seed += ex[:, None] * np.exp(2j * math.pi * mt * g.ys)[None, :]
    ph = g.twist(-1, -1) * np.exp(2j * math.pi * broken_shift)
    translated = np.roll(seed[nxu:], -g.sv_steps, axis=1) * ph
    return seed[:nxu] + translated


def _random_invariant_reference(grid, n, m, coef):
    """One beta-invariant function from its term rows, term by term."""
    g = grid
    xs = np.arange(g.nx_unit) / g.nx_unit
    sv = float(g.params.sv)
    out = np.zeros((g.nx_unit, g.ny), complex)
    for nt, mt, ct in zip(n.tolist(), m.tolist(), coef.tolist()):
        ex = ct * np.exp(2j * math.pi * (nt - mt * sv) * xs)
        out += ex[:, None] * np.exp(2j * math.pi * mt * g.ys)[None, :]
    return out


@pytest.mark.parametrize("broken_shift", [0.0, 0.07])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("sv", [Fraction(1, 4), Fraction(1, 3)])
def test_batched_vectors_match_per_sample_reference_bitwise(broken_shift, c,
                                                            sv):
    # at broken shift 0.07, g is the wrong unitary's vector that the tests
    # inject (oracles.broken_source_vector), which the pinned reports read
    grid = morita_grid(Params.from_steps(c, Fraction(1, 4), sv), 2)
    count = 6
    f_terms, g_terms, phi_terms = draw_terms(term_streams(c), count, 3)
    f = random_source_vector(grid, f_terms)
    gv = (broken_source_vector(grid, g_terms, broken_shift) if broken_shift
          else random_source_vector(grid, g_terms))
    phi = random_invariant_function(grid, phi_terms)
    assert f.samples.shape == (count, grid.nx_unit, grid.ny)
    for s in range(count):
        assert np.array_equal(f.samples[s], _random_source_reference(
            grid, *(a[s] for a in f_terms)))
        assert np.array_equal(gv.samples[s], _random_source_reference(
            grid, *(a[s] for a in g_terms), broken_shift))
        assert np.array_equal(phi.samples[s], _random_invariant_reference(
            grid, *(a[s] for a in phi_terms)))


@pytest.mark.parametrize("c, sv", [(1, Fraction(1, 4)), (2, Fraction(1, 3)),
                                   (3, Fraction(1, 3))])
@pytest.mark.parametrize("refinement", [2, 8])
def test_seeds_match_their_characters(c, sv, refinement):
    # the vectors multiply the x- and y-factors of each character; the
    # oracle evaluates each character as one exp of its whole phase
    grid = morita_grid(Params.from_steps(c, Fraction(1, 4), sv), refinement)
    f_terms, phi_terms = draw_terms(term_streams(c), 5, 2)
    xs = (np.arange(2 * grid.nx_unit) / grid.nx_unit)[:, None]
    window = np.sin(math.pi * xs / 2.0) ** 2
    n, m, coef = (a[..., None, None] for a in f_terms)
    seeds = np.sum(coef * window * np.exp(
        2j * math.pi * (n * xs / 2.0 + m * grid.ys)), axis=1)
    xs = xs[:grid.nx_unit]
    sv = float(grid.params.sv)
    n, m, coef = (a[..., None, None] for a in phi_terms)
    phis = np.sum(coef * np.exp(
        2j * math.pi * (n * xs + m * (grid.ys - sv * xs))), axis=1)
    for got, want in ((morita._source_seeds(grid, f_terms), seeds),
                      (random_invariant_function(grid, phi_terms).samples, phis)):
        assert got.shape == want.shape
        for s in range(len(want)):
            assert np.max(np.abs(got[s] - want[s])) <= 1e-13 * np.max(np.abs(want[s]))


# p of the twist per crossed cell, per tag (E_first 1, X -1, fixed points 0)
TAG_P = {X_BETA_USTAR_ALPHA: -1, E_FIRST: 1, BETA_INVARIANT: 0, E_FIXED: 0}


def _twisted_rule(grid, tag, p, broken_shift=0.0):
    """(cell rows, y-steps per cell, phase of cell k) of a Morita tag, or
    of component p of an algebra flavor, from the closed forms."""
    if tag == D_FLAVOR:
        return grid.nx_unit, 0, lambda k: grid.twist(k, p)
    if tag == E_FLAVOR:
        return grid.su_steps, grid.sv_steps, lambda k: grid.twist(p, k)
    q = TAG_P[tag]
    nx = grid.su_steps if tag in (E_FIRST, E_FIXED) else grid.nx_unit
    return nx, grid.sv_steps, \
        lambda k: grid.twist(q, k) * np.exp(2j * math.pi * q * broken_shift * k)


def _row_reference(rows, i, rule):
    """Row x = i*hx of a twisted-periodic function with fundamental-domain
    rows on axis 1, one row at a time: row r = i mod cell of cell
    k = i // cell, rolled by k shift, times the phase of cell k."""
    cell, shift, phase = rule
    k, r = divmod(i, cell)
    return np.roll(rows[:, r], k * shift, axis=-1) * phase(k)


@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("sv", [Fraction(1, 4), Fraction(1, 3)])
def test_iterated_cell_phases_compose_to_one_twist(c, sv):
    # crossing k cells one at a time multiplies by twist(p, +-1) per cell,
    # each on the y-shift of the last: the product is twist(p, k)
    grid = morita_grid(Params.from_steps(c, Fraction(1, 4), sv), 2)
    for p in (1, -1):
        for step in (1, -1):
            ph = np.ones(grid.ny, complex)
            for k in range(step, 6 * step, step):
                ph = grid.twist(p, step) * np.roll(ph, step * grid.sv_steps)
                assert np.max(np.abs(ph - grid.twist(p, k))) <= 1e-13, (p, k)
    with pytest.raises(TypeError):  # cells are integers, one at a time
        grid.twist(1, np.arange(-5, 6)[:, None])


@pytest.mark.parametrize("broken_shift, tag", [
    (b, t) for b in (0.0, 0.07) for t in TAG_P] + [(0.0, D_FLAVOR), (0.0, E_FLAVOR)])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("sv", [Fraction(1, 4), Fraction(1, 3)])
def test_eval_row_matches_per_row_reference_bitwise(tag, broken_shift, c, sv):
    # Grid.twisted_rows serves the four Morita tags (eval_row) and the two
    # algebra flavors (algebra.window): every row range over the cells
    # -(m+1) .. m+1, m = 1/su, of one vector and of a batch, and S and H's
    # stride -m reads, against the row-by-row closed form.  At broken shift
    # 0.07 the vector is the wrong unitary's that the tests inject
    # (oracles.BrokenUnitaryVector), which the pinned reports read.
    grid = morita_grid(Params.from_steps(c, Fraction(1, 3), sv), 2)
    rng = np.random.default_rng(c)
    m = rescale_factor(grid)

    def every_range(cell, evaluate, reference):
        span = range(-(m + 1) * cell, (m + 2) * cell)
        ref = np.stack([reference(i) for i in span], axis=1)
        for lo in span:
            for hi in range(lo, span.stop + 1):
                assert np.array_equal(evaluate(lo, hi),
                                      ref[:, lo - span.start:hi - span.start]), (lo, hi)

    if tag in (D_FLAVOR, E_FLAVOR):
        nxd = AlgebraElement.domain_steps(tag, grid)
        # component -1 of one element, and component 2 of a batch of two
        for p, shape in ((-1, (3, nxd, grid.ny)), (2, (3, nxd, 2, grid.ny))):
            rule = _twisted_rule(grid, tag, p)
            chain = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            every_range(nxd, lambda lo, hi: window(chain, tag, grid, p, lo, hi, 2),
                        lambda i: _row_reference(chain, i, rule))
        return
    rule = _twisted_rule(grid, tag, None, broken_shift)
    nx = rule[0]
    shape = (3, nx, grid.ny)
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for samples in (batch[:1], batch):      # one vector, and a batch
        v = (BrokenUnitaryVector(grid, samples, tag, broken_shift) if broken_shift
             else SpectralVector(grid, samples, tag))
        every_range(nx, v.eval_row, lambda i: _row_reference(samples, i, rule))
        if nx % m == 0:  # S and H read x = -m i hx
            every_range(nx // m, lambda lo, hi: v.eval_row(lo, hi, -m),
                        lambda i: _row_reference(samples, -m * i, rule))
        assert np.array_equal(v.samples, samples)   # samples left unwritten


def test_preservation_sample_evaluates_whole_arrays(params, monkeypatch):
    # at the benchmark's refinement: 15 array evaluations for one sample
    # and no more for twenty; a per-row loop in any map or check would make
    # hundreds, and a per-sample loop twenty times as many
    calls = []
    eval_row = SpectralVector.eval_row

    def counted(self, *rows):
        calls.append(rows)
        return eval_row(self, *rows)

    grid = morita_grid(params, 8)
    monkeypatch.setattr(SpectralVector, "eval_row", counted)
    verify_bimodule_preservation(grid, sample_count=1, seed=9201, tol=1e-10)
    single = len(calls)
    assert single <= 15
    verify_bimodule_preservation(grid, sample_count=20, seed=9201, tol=1e-10)
    assert len(calls) - single <= single


# Violations on the morita grid (ny = 2c/sv), recorded with repr from the
# whole-array draws, separable sums and closed-form eval_row; they must come
# back bit for bit.  Keys are (c, su, sv, refinement, broken_u), where a
# nonzero broken_u injects the wrong unitary of oracles.inject_broken_unitary.
PINNED = {
    (1, Fraction(1, 4), Fraction(1, 4), 8, 0.0): {
        "left_action": 5.0242958677880805e-15,
        "right_action": 5.0242958677880805e-15,
        "inner_left": 3.972054645195637e-15,
        "inner_right": 7.444291678311382e-15,
        "membership_transport": 1.3113797212790068e-14},
    (3, Fraction(1, 4), Fraction(1, 3), 3, 0.0): {
        "left_action": 5.3475422218306674e-15,
        "right_action": 4.440892098500626e-15,
        "inner_left": 4.440892098500626e-15,
        "inner_right": 5.687116766346677e-15,
        "membership_transport": 6.105378769900837e-14},
    (1, Fraction(1, 4), Fraction(1, 4), 8, 0.07): {
        "left_action": 5.0242958677880805e-15,
        "right_action": 5.0242958677880805e-15,
        "inner_left": 11.601489920928183,
        "inner_right": 47.38630976451803,
        "membership_transport": 2.666248270964571},
}


@pytest.mark.parametrize(
    "key", sorted(PINNED),
    ids=lambda k: f"c{k[0]}-r{k[3]}" + (f"-u{k[4]}" if k[4] else ""))
def test_preservation_report_is_pinned(key, monkeypatch):
    c, su, sv, refinement, broken_u = key
    grid = morita_grid(Params.from_steps(c, su, sv), refinement)
    if broken_u:
        inject_broken_unitary(monkeypatch, broken_u)
    rep = verify_bimodule_preservation(grid, sample_count=20, seed=9201, tol=1e-10)
    got = {name: chk["violation"] for name, chk in rep["checks"].items()}
    assert got == PINNED[key]

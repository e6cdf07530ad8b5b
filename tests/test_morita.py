"""Equivalence maps S and H: preservation identities and membership."""

import math

import numpy as np
import pytest

from fractions import Fraction

from qhm import lattice, morita
from qhm.lattice import Grid, Params, make_grid
from qhm.morita import (BETA_INVARIANT, E_FIRST, E_FIXED, X_BETA_USTAR_ALPHA,
                        MoritaGridError, SpectralVector, draw_terms, map_H,
                        map_S,
                        membership_defect_source, membership_transport_defect,
                        random_invariant_function, random_source_vectors,
                        rescale_factor, s_y_samples, source_inner_L,
                        source_inner_R, source_left, source_right,
                        target_inner_L, target_inner_R, target_left,
                        target_right, verify_bimodule_preservation)


def morita_grid(params, refinement):
    """The grid of `qhm morita`: make_grid's x-step and ny = 2c/sv."""
    return Grid(params, make_grid(params, refinement).hx,
                Fraction(1, s_y_samples(params)))


def test_rescale_factor(grid2):
    assert rescale_factor(grid2) == 4


def test_rescale_factor_rejects_non_integer():
    p = Params.from_steps(1, Fraction(2, 5), Fraction(2, 5))
    grid = make_grid(p, 2)
    with pytest.raises(MoritaGridError):
        rescale_factor(grid)


def test_source_vectors_are_members(grid2, rng):
    for f_terms in draw_terms(rng, 1, 5):
        (f,) = random_source_vectors(grid2, (f_terms, 0.0))
        scale = max(np.max(np.abs(f.samples)), 1)
        assert membership_defect_source(f) < 1e-12 * scale


def test_broken_vector_is_not_a_member(grid2, rng):
    (f_terms,) = draw_terms(rng, 1, 1)
    (f,) = random_source_vectors(grid2, (f_terms, 0.05))
    assert membership_defect_source(f) > 1e-3


def test_s_maps_into_first_subspace(grid2, rng):
    (f_terms,) = draw_terms(rng, 1, 1)
    (f,) = random_source_vectors(grid2, (f_terms, 0.0))
    sf = map_S(f)
    assert sf.tag == E_FIRST
    scale = max(np.max(np.abs(f.samples)), 1)
    assert membership_transport_defect(f) < 1e-12 * scale


@pytest.mark.parametrize("c, sv, ny", [
    (1, Fraction(1, 4), 32), (2, Fraction(2, 5), 20), (1, Fraction(2, 5), 5),
    (1, Fraction(2, 5), 10)])
def test_s_refuses_a_grid_where_it_is_not_y_periodic(c, sv, ny):
    # S(f)(x, y + 1) = e(c(2y + 1)/sv) S(f)(x, y): periodic on the samples
    # iff c/sv is an integer and ny divides 2c/sv.  On the refinement-tied
    # ny = 32 of refinement 8 (first case) membership_transport read 11.56.
    grid = Grid(Params.from_steps(c, Fraction(1, 4), sv), Fraction(1, 32),
                Fraction(1, ny))
    (f_terms,) = draw_terms(np.random.default_rng(0), 1, 1)
    (f,) = random_source_vectors(grid, (f_terms, 0.0))
    with pytest.raises(MoritaGridError):
        map_S(f)
    with pytest.raises(MoritaGridError):
        membership_transport_defect(f)


@pytest.mark.parametrize("refinement", [2, 3, 8])
@pytest.mark.parametrize("c, su, sv", [
    (1, Fraction(1, 4), Fraction(1, 4)), (2, Fraction(1, 4), Fraction(1, 4)),
    (3, Fraction(1, 4), Fraction(1, 3)), (2, Fraction(1, 4), Fraction(1, 3)),
    (2, Fraction(1, 4), Fraction(2, 5)), (1, Fraction(1, 5), Fraction(1, 3))])
def test_preservation_holds_on_the_morita_grid(c, su, sv, refinement):
    grid = morita_grid(Params.from_steps(c, su, sv), refinement)
    assert grid.ny == 2 * c / sv
    rep = verify_bimodule_preservation(grid, sample_count=20, seed=9201)
    for name, chk in rep["checks"].items():
        assert chk["violation"] <= 1e-13, name


def test_a_nan_violation_fails(grid2, monkeypatch):
    # max(0.0, nan) is 0.0: a NaN behind a number must not read as a pass
    values = iter([0.0, float("nan")])
    monkeypatch.setattr(morita, "membership_defect_source",
                        lambda f: next(values))
    rep = verify_bimodule_preservation(grid2, sample_count=1, seed=0)
    chk = rep["checks"]["source_membership"]
    assert math.isnan(chk["violation"]) and not chk["pass"]
    assert not rep["all_pass"]


def test_four_preservation_identities(grid2, rng):
    f_terms, g_terms, phi_terms = draw_terms(rng, 1, 3)
    (f,) = random_source_vectors(grid2, (f_terms, 0.0))
    (g,) = random_source_vectors(grid2, (g_terms, 0.0))
    phi = random_invariant_function(grid2, phi_terms)
    sf, sg, hphi = map_S(f), map_S(g), map_H(phi)

    def dev(a, b):
        return float(np.max(np.abs(a.samples - b.samples)))

    assert dev(map_S(source_left(phi, f)), target_left(hphi, sf)) < 1e-11
    assert dev(map_S(source_right(f, phi)), target_right(sf, hphi)) < 1e-11
    assert dev(map_H(source_inner_L(f, g)), target_inner_L(sf, sg)) < 1e-11
    assert dev(map_H(source_inner_R(f, g)), target_inner_R(sf, sg)) < 1e-11


def test_inner_r_needs_both_arguments_shifted(grid2, rng):
    # the variant shifting only the first argument breaks the identity
    f_terms, g_terms = draw_terms(rng, 1, 2)
    (f,) = random_source_vectors(grid2, (f_terms, 0.0))
    (g,) = random_source_vectors(grid2, (g_terms, 0.0))
    m = rescale_factor(grid2)
    step = m * grid2.nx_unit
    out = np.conj(f.eval_row(np.arange(f.nx) + step)) * g.samples
    wrong = SpectralVector(grid2, out, BETA_INVARIANT)
    dev = float(np.max(np.abs(
        map_H(wrong).samples - target_inner_R(map_S(f), map_S(g)).samples)))
    assert dev > 1e-2


def test_verification_clean(grid2):
    rep = verify_bimodule_preservation(grid2, sample_count=5, seed=3)
    assert rep["all_pass"]
    for name, chk in rep["checks"].items():
        assert chk["violation"] < 1e-11, name


def test_verification_flags_broken_unitary(grid2):
    rep = verify_bimodule_preservation(grid2, sample_count=5, seed=3,
                                       broken_u=0.07)
    assert not rep["all_pass"]
    assert not rep["checks"]["inner_left"]["pass"]
    assert not rep["checks"]["inner_right"]["pass"]
    assert not rep["checks"]["source_membership"]["pass"]


def test_verification_deterministic(grid2):
    a = verify_bimodule_preservation(grid2, sample_count=4, seed=11)
    b = verify_bimodule_preservation(grid2, sample_count=4, seed=11)
    assert a == b


@pytest.mark.parametrize("budget", [1, 3 * 128, 7 * 128 + 5])
def test_sample_batches_respect_the_grid_budget(grid2, monkeypatch, budget):
    # one sample of grid2 holds 2 * 8 * 8 = 128 seed points, so these
    # budgets cut the 20 samples into batches of 1, 3 and 7
    whole = verify_bimodule_preservation(grid2, sample_count=20, seed=9201,
                                         broken_u=0.07)
    calls = []
    eval_row = SpectralVector.eval_row

    def counted(self, idx):
        calls.append(self.samples.shape[0])
        return eval_row(self, idx)

    monkeypatch.setattr(SpectralVector, "eval_row", counted)
    monkeypatch.setattr(lattice, "GRID_BUDGET", budget)
    chunked = verify_bimodule_preservation(grid2, sample_count=20,
                                           seed=9201, broken_u=0.07)
    batch = max(1, budget // 128)
    assert max(calls) == batch
    assert len(calls) == 19 * -(-20 // batch)
    assert chunked == whole


@pytest.mark.parametrize("budget", [None, 7 * 512])
def test_each_character_is_evaluated_once_per_batch(params, monkeypatch,
                                                    budget):
    # f and gv share one character table, phi has its own: a batch
    # evaluates each distinct (n, m) of f and gv together once.  With a
    # table per vector it evaluated the pairs that f and gv share twice.
    # One sample of the refinement-8 grid holds 2 * 32 * 8 = 512 seed
    # points, so the budget 7 * 512 cuts the 20 samples into 3 batches.
    grid = morita_grid(params, 8)
    if budget is not None:
        monkeypatch.setattr(lattice, "GRID_BUDGET", budget)
    drawn, evals = [], []
    draw, superpose = morita.draw_terms, morita._superpose

    def drawing(*args):
        drawn.append(draw(*args))
        evals.append(0)
        return drawn[-1]

    def superposing(terms, character, window=None):
        def counted(n, m):
            evals[-1] += 1
            return character(n, m)
        return superpose(terms, counted, window)

    monkeypatch.setattr(morita, "draw_terms", drawing)
    monkeypatch.setattr(morita, "_superpose", superposing)
    verify_bimodule_preservation(grid, sample_count=20, seed=9201)
    assert len(drawn) == (1 if budget is None else 3)

    def distinct(*tables):
        return len({(n, m) for t in tables
                    for n, m in zip(t.n.ravel().tolist(), t.m.ravel().tolist())})

    for (f_terms, g_terms, phi_terms), count in zip(drawn, evals):
        assert count == distinct(f_terms, g_terms) + distinct(phi_terms)
        assert distinct(f_terms, g_terms) < distinct(f_terms) + distinct(g_terms)


def _random_source_reference(grid, rng, broken_shift=0.0):
    """One source vector, term by term from the generator: the per-sample
    builder that draw_terms and the character table replaced."""
    g = grid
    nxu, ny = g.nx_unit, g.ny
    xs = (np.arange(2 * nxu) / nxu)[:, None]
    ys = (np.arange(ny) * g.hy_f)[None, :]
    seed = np.zeros((2 * nxu, ny), complex)
    window = np.sin(math.pi * xs / 2.0) ** 2
    for _ in range(4):
        n = int(rng.integers(-2, 3))
        mm = int(rng.integers(-2, 3))
        coef = complex(rng.normal(), rng.normal())
        seed += coef * window * np.exp(2j * math.pi * (n * xs / 2.0 + mm * ys))
    ph = g.twist(-1, -1) * np.exp(2j * math.pi * broken_shift)
    translated = np.roll(seed[nxu:], -g.sv_steps, axis=1) * ph
    return seed[:nxu] + translated


def _random_invariant_reference(grid, rng):
    """One beta-invariant function, term by term from the generator."""
    g = grid
    xs = (np.arange(g.nx_unit) / g.nx_unit)[:, None]
    ys = (np.arange(g.ny) * g.hy_f)[None, :]
    sv = float(g.params.sv)
    out = np.zeros((g.nx_unit, g.ny), complex)
    for _ in range(4):
        n = int(rng.integers(-2, 3))
        mm = int(rng.integers(-2, 3))
        coef = complex(rng.normal(), rng.normal())
        out += coef * np.exp(2j * math.pi * (n * xs + mm * (ys - sv * xs)))
    return out


@pytest.mark.parametrize("broken_shift", [0.0, 0.07])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("sv", [Fraction(1, 4), Fraction(1, 3)])
def test_batched_vectors_match_per_sample_reference_bitwise(broken_shift, c,
                                                            sv):
    grid = morita_grid(Params.from_steps(c, Fraction(1, 4), sv), 2)
    count = 6
    f_terms, g_terms, phi_terms = draw_terms(np.random.default_rng(c), count,
                                             3)
    # built together, as the suite builds them, and one at a time
    f, gv = random_source_vectors(grid, (f_terms, 0.0),
                                  (g_terms, broken_shift))
    assert gv.broken_shift == broken_shift
    for v, table in ((f, (f_terms, 0.0)), (gv, (g_terms, broken_shift))):
        assert np.array_equal(v.samples,
                              random_source_vectors(grid, table)[0].samples)
    phi = random_invariant_function(grid, phi_terms)
    assert f.samples.shape == (count, grid.nx_unit, grid.ny)
    rng = np.random.default_rng(c)
    for s in range(count):
        # the stream order of the per-sample loop: f, then gv, then phi
        assert np.array_equal(f.samples[s], _random_source_reference(grid, rng))
        assert np.array_equal(gv.samples[s], _random_source_reference(
            grid, rng, broken_shift))
        assert np.array_equal(phi.samples[s],
                              _random_invariant_reference(grid, rng))


def _eval_row_reference(v, i):
    """Value row at x = i*hx, one row and one crossed cell at a time: the
    per-row loop that eval_row's index-array form replaced."""
    r = i % v.nx
    k = (i - r) // v.nx
    row = v.samples[r]
    if k == 0:
        return row
    g = v.grid
    step = 1 if k > 0 else -1
    ph = 1.0
    if v.tag in (X_BETA_USTAR_ALPHA, E_FIRST):
        c, sv = g.params.c, float(g.params.sv)
        twist = np.exp(2j * math.pi * c * step * step * (g.ys - step * sv / 2))
        ph = twist * np.exp(2j * math.pi * v.broken_shift)
        if (v.tag == X_BETA_USTAR_ALPHA) == (k > 0):
            ph = np.conj(ph)
    for _ in range(abs(k)):
        row = ph * np.roll(row, step * g.sv_steps)
    return row


@pytest.mark.parametrize("tag", [X_BETA_USTAR_ALPHA, E_FIRST,
                                 BETA_INVARIANT, E_FIXED])
@pytest.mark.parametrize("broken_shift", [0.0, 0.07])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("sv", [Fraction(1, 4), Fraction(1, 3)])
def test_eval_row_matches_per_row_reference_bitwise(tag, broken_shift, c, sv):
    grid = morita_grid(Params.from_steps(c, Fraction(1, 4), sv), 2)
    rng = np.random.default_rng(c)
    nx = grid.nx_unit if tag in (X_BETA_USTAR_ALPHA, BETA_INVARIANT) \
        else grid.su_steps
    samples = rng.normal(size=(nx, grid.ny)) \
        + 1j * rng.normal(size=(nx, grid.ny))
    v = SpectralVector(grid, samples, tag, broken_shift)
    m = rescale_factor(grid)
    # every row of the cells k = -(m+1) .. m+1, shuffled so that cells mix
    idx = rng.permutation(np.arange(-(m + 1) * nx, (m + 2) * nx))
    block = v.eval_row(idx)
    ref = np.stack([_eval_row_reference(v, int(i)) for i in idx])
    assert block.shape == (len(idx), grid.ny)
    assert np.array_equal(block, ref)
    assert np.array_equal(v.samples, samples)      # samples left unwritten
    # a leading sample axis: every slice is its own vector's block
    batch = np.stack([samples, rng.normal(size=samples.shape)
                      + 1j * rng.normal(size=samples.shape), samples[::-1]])
    vb = SpectralVector(grid, batch, tag, broken_shift)
    blocks = vb.eval_row(idx)
    assert blocks.shape == (3, len(idx), grid.ny)
    for s in range(3):
        vs = SpectralVector(grid, batch[s], tag, broken_shift)
        ref = np.stack([_eval_row_reference(vs, int(i)) for i in idx])
        assert np.array_equal(blocks[s], ref)


def test_eval_row_rejects_a_scalar_index(grid2, rng):
    (f_terms,) = draw_terms(rng, 1, 1)
    (f,) = random_source_vectors(grid2, (f_terms, 0.0))
    with pytest.raises(ValueError):
        f.eval_row(3)


def test_preservation_sample_evaluates_whole_arrays(params, monkeypatch):
    # at the benchmark's refinement: 19 array evaluations for one sample
    # and no more for twenty; a per-row loop in any map or check would make
    # hundreds, and a per-sample loop twenty times as many
    calls = []
    eval_row = SpectralVector.eval_row

    def counted(self, idx):
        calls.append(len(idx))
        return eval_row(self, idx)

    grid = morita_grid(params, 8)
    monkeypatch.setattr(SpectralVector, "eval_row", counted)
    verify_bimodule_preservation(grid, sample_count=1, seed=9201)
    single = len(calls)
    assert single <= 19
    verify_bimodule_preservation(grid, sample_count=20, seed=9201)
    assert len(calls) - single <= single


# Violations on the morita grid (ny = 2c/sv), recorded with repr from the
# batched array evaluation before the grid rule existed, on the same grid
# built with Grid(...); they must come back bit for bit.  Keys are
# (c, su, sv, refinement, broken_u).
PINNED = {
    (1, Fraction(1, 4), Fraction(1, 4), 8, 0.0): {
        "left_action": 5.0242958677880805e-15,
        "right_action": 5.0242958677880805e-15,
        "inner_left": 7.229248575812844e-15,
        "inner_right": 7.32410687763558e-15,
        "membership_transport": 1.0584449654707028e-14,
        "source_membership": 0.0},
    (3, Fraction(1, 4), Fraction(1, 3), 3, 0.0): {
        "left_action": 5.0242958677880805e-15,
        "right_action": 5.0242958677880805e-15,
        "inner_left": 4.440892098500626e-15,
        "inner_right": 1.854570987253821e-14,
        "membership_transport": 6.079320143700642e-14,
        "source_membership": 0.0},
    (1, Fraction(1, 4), Fraction(1, 4), 8, 0.07): {
        "left_action": 5.0242958677880805e-15,
        "right_action": 5.0242958677880805e-15,
        "inner_left": 10.404002766039419,
        "inner_right": 43.04018465872595,
        "membership_transport": 1.0584449654707028e-14,
        "source_membership": 2.9313992760190732},
}


@pytest.mark.parametrize(
    "key", sorted(PINNED),
    ids=lambda k: f"c{k[0]}-r{k[3]}" + (f"-u{k[4]}" if k[4] else ""))
def test_preservation_report_is_pinned(key):
    c, su, sv, refinement, broken_u = key
    grid = morita_grid(Params.from_steps(c, su, sv), refinement)
    rep = verify_bimodule_preservation(grid, sample_count=20, seed=9201,
                                       broken_u=broken_u)
    got = {name: chk["violation"] for name, chk in rep["checks"].items()}
    assert got == PINNED[key]

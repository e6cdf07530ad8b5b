"""Equivalence maps S and H: preservation identities and membership."""

import math

import numpy as np
import pytest

from fractions import Fraction

from qhm.lattice import Params, make_grid
from qhm.morita import (BETA_INVARIANT, E_FIRST, E_FIXED, X_BETA_USTAR_ALPHA,
                        MoritaGridError, SpectralVector, map_H, map_S,
                        membership_defect_source, membership_transport_defect,
                        random_invariant_function, random_source_vector,
                        rescale_factor, source_inner_L, source_inner_R,
                        source_left, source_right, target_inner_L,
                        target_inner_R, target_left, target_right,
                        verify_bimodule_preservation)


def test_rescale_factor(grid2):
    assert rescale_factor(grid2) == 4


def test_rescale_factor_rejects_non_integer():
    p = Params.from_steps(1, Fraction(2, 5), Fraction(2, 5))
    grid = make_grid(p, 2)
    with pytest.raises(MoritaGridError):
        rescale_factor(grid)


def test_source_vectors_are_members(grid2, rng):
    for _ in range(5):
        f = random_source_vector(grid2, rng)
        assert membership_defect_source(f) < 1e-12 * max(f.norm_inf(), 1)


def test_broken_vector_is_not_a_member(grid2, rng):
    f = random_source_vector(grid2, rng, broken_shift=0.05)
    assert membership_defect_source(f) > 1e-3


def test_s_maps_into_first_subspace(grid2, rng):
    f = random_source_vector(grid2, rng)
    sf = map_S(f)
    assert sf.tag == E_FIRST
    assert membership_transport_defect(f) < 1e-12 * max(f.norm_inf(), 1)


def test_four_preservation_identities(grid2, rng):
    f = random_source_vector(grid2, rng)
    g = random_source_vector(grid2, rng)
    phi = random_invariant_function(grid2, rng)
    sf, sg, hphi = map_S(f), map_S(g), map_H(phi)

    def dev(a, b):
        return float(np.max(np.abs(a.samples - b.samples)))

    assert dev(map_S(source_left(phi, f)), target_left(hphi, sf)) < 1e-11
    assert dev(map_S(source_right(f, phi)), target_right(sf, hphi)) < 1e-11
    assert dev(map_H(source_inner_L(f, g)), target_inner_L(sf, sg)) < 1e-11
    assert dev(map_H(source_inner_R(f, g)), target_inner_R(sf, sg)) < 1e-11


def test_inner_r_needs_both_arguments_shifted(grid2, rng):
    # the variant shifting only the first argument breaks the identity
    f = random_source_vector(grid2, rng)
    g = random_source_vector(grid2, rng)
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
    grid = make_grid(Params.from_steps(c, Fraction(1, 4), sv), 2,
                     tied_ny=True)
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


def test_eval_row_rejects_a_scalar_index(grid2, rng):
    f = random_source_vector(grid2, rng)
    with pytest.raises(ValueError):
        f.eval_row(3)


def test_preservation_sample_evaluates_whole_arrays(grid8, monkeypatch):
    # one sample at the benchmark's refinement: 19 array evaluations; a
    # per-row loop in any map or check would make hundreds
    calls = []
    eval_row = SpectralVector.eval_row

    def counted(self, idx):
        calls.append(len(idx))
        return eval_row(self, idx)

    monkeypatch.setattr(SpectralVector, "eval_row", counted)
    verify_bimodule_preservation(grid8, sample_count=1, seed=9201)
    assert len(calls) <= 19


# Violations of the per-row implementation, recorded with repr; the array
# evaluation forms the same products in the same order, so they must come
# back bit for bit.  membership_transport at refinement 8 is the known
# defect of S on the torus (ROADMAP item 2).
PINNED = {
    (1, Fraction(1, 4), Fraction(1, 4), 8): {
        "left_action": 8.498827956506644e-15,
        "right_action": 8.498827956506644e-15,
        "inner_left": 7.32410687763558e-15,
        "inner_right": 1.517719948885615e-14,
        "membership_transport": 11.558352509287685,
        "source_membership": 0.0},
    (3, Fraction(1, 4), Fraction(1, 3), 3): {
        "left_action": 5.0242958677880805e-15,
        "right_action": 3.972054645195637e-15,
        "inner_left": 3.66205343881779e-15,
        "inner_right": 1.1234667099445444e-14,
        "membership_transport": 6.079320143700642e-14,
        "source_membership": 0.0},
}


@pytest.mark.parametrize("key", sorted(PINNED),
                         ids=lambda k: f"c{k[0]}-r{k[3]}")
def test_preservation_report_is_pinned(key):
    c, su, sv, refinement = key
    grid = make_grid(Params.from_steps(c, su, sv), refinement, tied_ny=True)
    rep = verify_bimodule_preservation(grid, sample_count=20, seed=9201)
    got = {name: chk["violation"] for name, chk in rep["checks"].items()}
    assert got == PINNED[key]

"""The equivalence-bimodule maps S and H and their preservation identities.

Source side: vectors in the twisted subspace

  X = { g on R x T : g(x-1, y-sv) = e(c(y - sv/2)) g(x,y) }

over the beta-invariant functions (beta(x,y) = (x+1, y+sv)), with

  (phi . f)(x,y) = phi(x,y) f(x,y)
  (f . phi)(x,y) = f(x,y) phi(x - 1/su, y)
  <f,g>_L(x,y)   = f(x,y) conj g(x,y)
  <f,g>_R(x,y)   = conj f(x + 1/su, y) g(x + 1/su, y).

Target side: the first spectral subspace of the E-flavor algebra,

  E_1 = { F : F(x,y) = e(c(y - sv/2)) F(x-su, y-sv) },

a bimodule over the E-flavor fixed-point functions psi(x,y) = psi(x-su,y-sv)
with F.psi = F(x,y) psi(x+1,y), <F,G>_R = conj F(x-1,y) G(x-1,y), and
pointwise left action and left inner product.  The maps

  S(f)(x,y) = e(c y^2 / sv) f(-x/su, -y),   H(phi)(x,y) = phi(-x/su, -y)

intertwine the two structures; verify_bimodule_preservation measures the
four identities S(phi.f) = H(phi).S(f), S(f.phi) = S(f).H(phi),
<S f, S g>_L = H(<f,g>_L), <S f, S g>_R = H(<f,g>_R) on seeded samples.

Vectors are stored by fundamental-domain samples, x in [0,1) x [0,1) on the
source side and [0,su) x [0,1) on the target side, optionally behind a
leading sample axis: one SpectralVector holds a batch (S, nx, ny) of S
members.  SpectralVector.eval_row evaluates a whole array of x-indices
anywhere through the defining twist, with one y-shift of the sample array
per crossed cell, so each map, bimodule operation and check below is one
array expression over all S samples.  Two rationality constraints are enforced
where the maps are formed, with MoritaGridError: x -> -x/su maps grid points
to grid points iff 1/su is an integer (rescale_factor), and S(f) is
y-periodic on the samples, a function on the torus, iff c/sv is an integer
and ny divides 2c/sv (s_y_samples).

The seeded samples are sums of four characters each.  draw_terms takes
their frequencies and coefficients from the generator one sample at a time;
the builders then evaluate each distinct character once, as one row of a
character table, and add the terms of all samples from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple

import numpy as np

from . import lattice
from .lattice import Grid, Params

X_BETA_USTAR_ALPHA = "X_beta_ustar_alpha"
E_FIRST = "E_first"
BETA_INVARIANT = "beta_invariant"
E_FIXED = "E_fixed"

_TAG_NX = {X_BETA_USTAR_ALPHA: "nx_unit", BETA_INVARIANT: "nx_unit",
           E_FIRST: "su_steps", E_FIXED: "su_steps"}
# unit cell of the x-translation in grid steps, per tag
_TAG_PHASED = {X_BETA_USTAR_ALPHA: True, BETA_INVARIANT: False,
               E_FIRST: True, E_FIXED: False}


class MoritaGridError(ValueError):
    """S or H is not a map between functions on this grid."""


def rescale_factor(grid: Grid) -> int:
    """1/su as an integer; the rescaling x -> -x/su is exact iff this exists."""
    inv = 1 / grid.params.su
    if inv.denominator != 1:
        raise MoritaGridError(
            f"1/su = {inv} is not an integer; x -> -x/su leaves the grid")
    return int(inv)


def s_y_samples(params: Params) -> int:
    """2c/sv.  S(f)(x, y + 1) = e(c(2y + 1)/sv) S(f)(x, y), so S(f) is
    y-periodic on the samples j/ny iff c/sv is an integer and ny divides
    2c/sv, which is then a multiple of sv's denominator."""
    if params.sv == 0 or (params.c / params.sv).denominator != 1:
        raise MoritaGridError(f"c/sv = {params.c}/({params.sv}) is not an integer")
    return int(2 * params.c / params.sv)


@dataclass(frozen=True)
class SpectralVector:
    """Fundamental-domain samples (nx, ny) of a member of one of the four
    spaces, or (S, nx, ny) of S members.

    The twist phase used when crossing the unit cell can be overridden
    (broken_shift) to model a deliberately wrong unitary u in tests.
    """

    grid: Grid
    samples: np.ndarray
    tag: str
    broken_shift: float = 0.0

    def __post_init__(self):
        nx = getattr(self.grid, _TAG_NX[self.tag])
        if self.samples.ndim not in (2, 3) \
                or self.samples.shape[-2:] != (nx, self.grid.ny):
            raise ValueError(f"samples shape {self.samples.shape} does not "
                             f"match ({nx}, {self.grid.ny}) for tag {self.tag}")

    @property
    def nx(self) -> int:
        return self.samples.shape[-2]

    def eval_row(self, idx: np.ndarray) -> np.ndarray:
        """(..., len(idx), ny) block of values at (x_i, y_j) for each i in the
        1-D integer array idx and all j, per sample; x_i = i*hx may lie
        outside the domain.

        Index i is row r = i mod nx of cell k = i // nx.  Each cell crossed
        moves y by sv and, on the phased spaces, applies the twist
        F(x + su, y) = e(c(y - sv/2)) F(x, y - sv) (E_first) or
        g(x + 1, y) = conj e(c(y - sv/2)) g(x, y - sv) (X), times
        e(broken_shift), or its inverse when crossing downwards.  Cell k is
        built once, from cell k -/+ 1 as ph * cell shifted by +/-sv_steps in
        y (Grid.y_roll) over the whole sample array, and its rows are
        gathered by fancy indexing.
        """
        if np.ndim(idx) != 1:
            raise ValueError(f"eval_row takes a 1-D index array, not {idx!r}")
        k, r = np.divmod(idx, self.nx)
        out = self.samples[..., r, :]
        g = self.grid
        for step in (1, -1):
            far = int(np.max(step * k, initial=0))
            ph = 1.0
            if far and _TAG_PHASED[self.tag]:
                ph = g.twist(step, step) * np.exp(2j * math.pi * self.broken_shift)
                if (self.tag == X_BETA_USTAR_ALPHA) == (step > 0):
                    ph = np.conj(ph)
            cell = self.samples
            for n in range(1, far + 1):
                cell = ph * cell[..., g.y_roll(step * g.sv_steps)]
                hit = k == step * n
                out[..., hit, :] = cell[..., r[hit], :]
        return out


def _reverse_y(rows: np.ndarray, grid: Grid) -> np.ndarray:
    """rows'[..., j] = rows[..., -j mod ny], one gather: y_roll(-1) maps j
    to j + 1, so read backwards it maps j to ny - j."""
    return rows[..., grid.y_roll(-1)[::-1]]


def _S_rows(f: SpectralVector, idx: np.ndarray) -> np.ndarray:
    """S(f) at x = i*hx for each i in idx, straight from the formula."""
    g = f.grid
    if s_y_samples(g.params) % g.ny:
        raise MoritaGridError(f"S(f) is not y-periodic on {g.ny} y-samples")
    phase = np.exp(2j * math.pi * g.params.c * g.ys ** 2 / float(g.params.sv))
    return phase * _reverse_y(f.eval_row(-rescale_factor(g) * idx), g)


def map_S(f: SpectralVector) -> SpectralVector:
    """S(f)(x,y) = e(c y^2 / sv) f(-x/su, -y), onto the first E subspace."""
    if f.tag != X_BETA_USTAR_ALPHA:
        raise ValueError(f"map_S expects tag {X_BETA_USTAR_ALPHA}, got {f.tag}")
    return SpectralVector(f.grid, _S_rows(f, np.arange(f.grid.su_steps)),
                          E_FIRST)


def map_H(phi: SpectralVector) -> SpectralVector:
    """H(phi)(x,y) = phi(-x/su, -y), beta-invariant to E-fixed functions."""
    if phi.tag != BETA_INVARIANT:
        raise ValueError(f"map_H expects tag {BETA_INVARIANT}, got {phi.tag}")
    g = phi.grid
    rows = phi.eval_row(-rescale_factor(g) * np.arange(g.su_steps))
    return SpectralVector(g, _reverse_y(rows, g), E_FIXED)


# source-side bimodule operations ------------------------------------------

def source_left(phi: SpectralVector, f: SpectralVector) -> SpectralVector:
    return SpectralVector(f.grid, phi.samples * f.samples, f.tag,
                          f.broken_shift)


def source_right(f: SpectralVector, phi: SpectralVector) -> SpectralVector:
    """(f . phi)(x,y) = f(x,y) phi(x - 1/su, y)."""
    # 1/su is m whole x-units, i.e. m*nx_unit grid steps
    step = rescale_factor(f.grid) * f.grid.nx_unit
    out = f.samples * phi.eval_row(np.arange(f.nx) - step)
    return SpectralVector(f.grid, out, f.tag, f.broken_shift)


def source_inner_L(f: SpectralVector, g: SpectralVector) -> SpectralVector:
    return SpectralVector(f.grid, f.samples * np.conj(g.samples),
                          BETA_INVARIANT)


def source_inner_R(f: SpectralVector, g: SpectralVector) -> SpectralVector:
    """<f,g>_R(x,y) = conj f(x + 1/su, y) g(x + 1/su, y).

    Both arguments are shifted, matching the alpha-side formula and the
    crossed-product form adjoint(F) * G on the target side; the variant
    that shifts only the first argument breaks the fourth preservation
    identity for every nonzero sample.
    """
    idx = np.arange(f.nx) + rescale_factor(f.grid) * f.grid.nx_unit
    out = np.conj(f.eval_row(idx)) * g.eval_row(idx)
    return SpectralVector(f.grid, out, BETA_INVARIANT)


# target-side bimodule operations ------------------------------------------

def target_left(psi: SpectralVector, F: SpectralVector) -> SpectralVector:
    return SpectralVector(F.grid, psi.samples * F.samples, F.tag)


def target_right(F: SpectralVector, psi: SpectralVector) -> SpectralVector:
    """(F . psi)(x,y) = F(x,y) psi(x+1,y)."""
    # one x-unit is nx_unit grid steps
    out = F.samples * psi.eval_row(np.arange(F.nx) + F.grid.nx_unit)
    return SpectralVector(F.grid, out, F.tag)


def target_inner_L(F: SpectralVector, G: SpectralVector) -> SpectralVector:
    return SpectralVector(F.grid, F.samples * np.conj(G.samples), E_FIXED)


def target_inner_R(F: SpectralVector, G: SpectralVector) -> SpectralVector:
    """<F,G>_R(x,y) = conj F(x-1,y) G(x-1,y)."""
    idx = np.arange(F.nx) - F.grid.nx_unit
    out = np.conj(F.eval_row(idx)) * G.eval_row(idx)
    return SpectralVector(F.grid, out, E_FIXED)


# seeded generators --------------------------------------------------------

TERMS = 4       # characters per random vector
MAX_FREQ = 2    # |n|, |m| of each character


class Terms(NamedTuple):
    """Drawn characters of S random vectors, each array (S, TERMS)."""

    n: np.ndarray       # x-frequencies
    m: np.ndarray       # y-frequencies
    coef: np.ndarray    # complex amplitudes


def draw_terms(rng: np.random.Generator, sample_count: int,
               kinds: int) -> List[Terms]:
    """Term tables of `kinds` random vectors per sample, in stream order:
    sample by sample, vector by vector, term by term, n then m then the
    real and imaginary parts of the amplitude, one scalar draw each."""
    n = np.empty((kinds, sample_count, TERMS), int)
    m = np.empty_like(n)
    coef = np.empty(n.shape, complex)
    for s in range(sample_count):
        for kind in range(kinds):
            for t in range(TERMS):
                n[kind, s, t] = rng.integers(-MAX_FREQ, MAX_FREQ + 1)
                m[kind, s, t] = rng.integers(-MAX_FREQ, MAX_FREQ + 1)
                coef[kind, s, t] = complex(rng.normal(), rng.normal())
    return [Terms(*arrays) for arrays in zip(n, m, coef)]


def _superpose(terms: Terms, character, window=None) -> np.ndarray:
    """(S, ...) sums over t of coef_t [* window] * character(n_t, m_t),
    added in term order; each distinct character is evaluated once."""
    pairs, which = np.unique(
        np.stack([terms.n, terms.m], axis=-1).reshape(-1, 2), axis=0,
        return_inverse=True)
    which = which.reshape(terms.n.shape)
    table = np.stack([character(n, m) for n, m in pairs.tolist()])
    out = np.zeros((len(terms.coef),) + table.shape[1:], complex)
    for t in range(TERMS):
        coef = terms.coef[:, t, None, None]
        if window is not None:
            coef = coef * window
        out += coef * table[which[:, t]]
    return out


def random_source_vectors(grid: Grid, *tables) -> List[SpectralVector]:
    """Phase-twisted periodizations of compactly supported random seeds,
    one per row of each (term table, broken_shift) pair given, as one
    SpectralVector per table.

    Each seed lives on x in [0,2); summing its twisted unit translates
    telescopes into an exact member of the twisted subspace (with the
    broken phase instead when broken_shift is nonzero).  All tables share
    one _superpose, so each distinct character is evaluated once.
    """
    g = grid
    nxu = g.nx_unit
    xs = (np.arange(2 * nxu) / nxu)[:, None]
    ys = (np.arange(g.ny) * g.hy_f)[None, :]
    window = np.sin(math.pi * xs / 2.0) ** 2        # vanishes at x=0 and x=2
    terms, shifts = zip(*tables)
    seeds = _superpose(
        Terms(*map(np.concatenate, zip(*terms))),
        lambda n, mm: np.exp(2j * math.pi * (n * xs / 2.0 + mm * ys)), window)
    ends = np.cumsum([len(t.coef) for t in terms])[:-1]
    out = []
    for seed, broken_shift in zip(np.split(seeds, ends), shifts):
        # g = seed|_[0,1) + U(seed)|_[0,1) with U the twisted unit translate
        ph = g.twist(-1, -1) * np.exp(2j * math.pi * broken_shift)
        translated = seed[:, nxu:][..., g.y_roll(-g.sv_steps)] * ph
        out.append(SpectralVector(g, seed[:, :nxu] + translated,
                                  X_BETA_USTAR_ALPHA, broken_shift))
    return out


def random_invariant_function(grid: Grid, terms: Terms) -> SpectralVector:
    """Random beta-invariant functions from the invariant characters
    e(n x + m (y - sv x)), one per row of the term table."""
    g = grid
    xs = (np.arange(g.nx_unit) / g.nx_unit)[:, None]
    ys = (np.arange(g.ny) * g.hy_f)[None, :]
    sv = float(g.params.sv)
    out = _superpose(
        terms,
        lambda n, mm: np.exp(2j * math.pi * (n * xs + mm * (ys - sv * xs))))
    return SpectralVector(g, out, BETA_INVARIANT)


# verification -------------------------------------------------------------

def _maxdiff(a: SpectralVector, b: SpectralVector) -> float:
    return float(np.max(np.abs(a.samples - b.samples)))


def membership_defect_source(f: SpectralVector) -> float:
    """Violation of g(x-1,y-sv) = e(c(y-sv/2)) g(x,y) using literal phases.

    Both sides are evaluated through the clean twist on the stored samples,
    so a vector generated with a broken phase shows a nonzero defect.
    """
    clean = SpectralVector(f.grid, f.samples, f.tag)
    idx = np.arange(f.nx) + f.nx
    return float(np.max(np.abs(clean.eval_row(idx) - f.eval_row(idx))))


def membership_transport_defect(f: SpectralVector) -> float:
    """Violation of the E-subspace twist by S(f), with S evaluated from its
    formula on both sides (the stored-sample extension would be circular)."""
    g = f.grid
    i = np.arange(g.su_steps)
    rhs = g.twist(1, 1) * _S_rows(f, i - g.su_steps)[..., g.y_roll(g.sv_steps)]
    return float(np.max(np.abs(_S_rows(f, i) - rhs)))


def verify_bimodule_preservation(grid: Grid, sample_count: int = 20,
                                 seed: int = 0, broken_u: float = 0.0,
                                 tol: float = 1e-10) -> Dict[str, object]:
    """Measure the four preservation identities on seeded random members.

    The samples are evaluated as batches of at most lattice.GRID_BUDGET
    seed points (S * 2 nx_unit * ny), drawn in turn from one generator;
    each identity's worst value is the max over all batches.
    """
    rng = np.random.default_rng(seed)
    batches = []
    chunk = max(1, lattice.GRID_BUDGET // (2 * grid.nx_unit * grid.ny))
    for start in range(0, sample_count, chunk):
        f_terms, g_terms, phi_terms = draw_terms(
            rng, min(chunk, sample_count - start), 3)
        # a broken unitary phase is applied to the second vector only; a
        # consistent corruption of both would cancel in the conjugate pairs
        # of the inner products and go unnoticed there
        f, gv = random_source_vectors(grid, (f_terms, 0.0),
                                      (g_terms, broken_u))
        phi = random_invariant_function(grid, phi_terms)
        sf, sg, hphi = map_S(f), map_S(gv), map_H(phi)
        batches.append({
            "left_action": _maxdiff(map_S(source_left(phi, f)),
                                    target_left(hphi, sf)),
            "right_action": _maxdiff(map_S(source_right(f, phi)),
                                     target_right(sf, hphi)),
            "inner_left": _maxdiff(map_H(source_inner_L(f, gv)),
                                   target_inner_L(sf, sg)),
            "inner_right": _maxdiff(map_H(source_inner_R(f, gv)),
                                    target_inner_R(sf, sg)),
            "membership_transport": membership_transport_defect(f),
            "source_membership": np.maximum(membership_defect_source(f),
                                            membership_defect_source(gv))})
    # np.max and np.maximum keep a NaN, which max() drops behind a number
    worst = {k: float(np.max([b[k] for b in batches])) for k in batches[0]}
    checks = {k: {"violation": v, "tol": tol, "pass": bool(v <= tol)}
              for k, v in worst.items()}
    return {
        "sample_count": sample_count,
        "seed": seed,
        "broken_u": broken_u,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }

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
<S f, S g>_L = H(<f,g>_L), <S f, S g>_R = H(<f,g>_R) on seeded samples, and
that S(f) lies in E_1.  That f lies in X holds by construction: eval_row
extends any fundamental-domain samples through the twist.

Vectors are stored by fundamental-domain samples, x in [0,1) x [0,1) on the
source side and [0,su) x [0,1) on the target side, behind a leading sample
axis: one SpectralVector holds a batch (S, nx, ny) of S members.
SpectralVector.eval_row evaluates a range of rows anywhere through the
defining twist, composed over k crossed cells into the one phase
Grid.twist(p, k) of Grid.twisted_rows, so each map, bimodule operation and
check below is one array expression over all S samples.  Two rationality
constraints are enforced where the maps are formed, with MoritaGridError:
x -> -x/su maps grid points to grid points iff 1/su is an integer
(rescale_factor), and S(f) is y-periodic on the samples, a function on the
torus, iff c/sv is an integer and ny divides 2c/sv (s_y_samples).

The seeded samples are sums of four characters each.  draw_terms takes the
frequencies and amplitudes of a whole chunk of samples from two streams in
one call each; random_source_vector and random_invariant_function add the
terms as products of their x- and y-factors, so no full-grid character is
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

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
_TAG_P = {X_BETA_USTAR_ALPHA: -1, BETA_INVARIANT: 0, E_FIRST: 1, E_FIXED: 0}
# p of the phase twist(p, 1) = e(p c (y - sv/2)) per crossed cell, per tag


class MoritaGridError(ValueError):
    """S or H is not a map between functions on this grid."""


def rescale_factor(grid: Grid) -> int:
    """1/su as an integer; the rescaling x -> -x/su is exact iff this exists.
    1/su = nx_unit / su_steps, from the grid's own step counts."""
    inv, rem = divmod(grid.nx_unit, grid.su_steps)
    if rem:
        raise MoritaGridError(f"1/su = {1 / grid.params.su} is not an integer; "
                              f"x -> -x/su leaves the grid")
    return inv


def s_y_samples(params: Params) -> int:
    """2c/sv.  S(f)(x, y + 1) = e(c(2y + 1)/sv) S(f)(x, y), so S(f) is
    y-periodic on the samples j/ny iff c/sv is an integer and ny divides
    2c/sv, which is then a multiple of sv's denominator.  With sv = a/b,
    c/sv = c b / a, in integers."""
    a, b = params.sv.numerator, params.sv.denominator
    if a == 0 or (params.c * b) % a:
        raise MoritaGridError(f"c/sv = {params.c}/({params.sv}) is not an integer")
    return 2 * params.c * b // a


@dataclass(frozen=True)
class SpectralVector:
    """Fundamental-domain samples (S, nx, ny) of S members of one of the
    four spaces."""

    grid: Grid
    samples: np.ndarray
    tag: str

    def __post_init__(self):
        nx = getattr(self.grid, _TAG_NX[self.tag])
        if self.samples.ndim != 3 or self.samples.shape[1:] != (nx, self.grid.ny):
            raise ValueError(f"samples shape {self.samples.shape} does not "
                             f"match (S, {nx}, {self.grid.ny}) for tag {self.tag}")

    @property
    def nx(self) -> int:
        return self.samples.shape[1]

    def eval_row(self, lo: int, hi: int, stride: int = 1) -> np.ndarray:
        """(S, hi - lo, ny) values at x = stride*i*hx, i in [lo, hi), and
        every y-sample; x may lie outside the domain, and |stride| divides
        nx (S and H read every m-th row backwards, stride -m).  A crossed
        cell moves y by sv and multiplies by twist(p, 1), p = _TAG_P[tag];
        across k cells these compose to the phase twist(p, k) of
        Grid.twisted_rows."""
        g = self.grid
        p = _TAG_P[self.tag]
        m = abs(stride)
        if stride < 0:
            lo, hi = 1 - hi, 1 - lo
        out = g.twisted_rows(self.samples[:, ::m], lo, hi, self.nx // m, g.sv_steps,
                             lambda k: g.twist(p, k))
        return out if stride > 0 else out[:, ::-1]


def _H_rows(v: SpectralVector, lo: int, hi: int) -> np.ndarray:
    """v(-x/su, -y) at x = i*hx for each i in [lo, hi), y reversed by one
    gather: y_roll(-1) maps j to j + 1, so read backwards it maps j to
    ny - j."""
    g = v.grid
    return v.eval_row(lo, hi, -rescale_factor(g))[..., g.y_roll(-1)[::-1]]


def _S_rows(f: SpectralVector, lo: int, hi: int) -> np.ndarray:
    """S(f) at x = i*hx for each i in [lo, hi), straight from the formula."""
    g = f.grid
    if s_y_samples(g.params) % g.ny:
        raise MoritaGridError(f"S(f) is not y-periodic on {g.ny} y-samples")
    return g.s_phase * _H_rows(f, lo, hi)


def map_S(f: SpectralVector) -> SpectralVector:
    """S(f)(x,y) = e(c y^2 / sv) f(-x/su, -y), onto the first E subspace."""
    if f.tag != X_BETA_USTAR_ALPHA:
        raise ValueError(f"map_S expects tag {X_BETA_USTAR_ALPHA}, got {f.tag}")
    return SpectralVector(f.grid, _S_rows(f, 0, f.grid.su_steps), E_FIRST)


def map_H(phi: SpectralVector) -> SpectralVector:
    """H(phi)(x,y) = phi(-x/su, -y), beta-invariant to E-fixed functions."""
    if phi.tag != BETA_INVARIANT:
        raise ValueError(f"map_H expects tag {BETA_INVARIANT}, got {phi.tag}")
    return SpectralVector(phi.grid, _H_rows(phi, 0, phi.grid.su_steps), E_FIXED)


# source-side bimodule operations ------------------------------------------

def source_left(phi: SpectralVector, f: SpectralVector) -> SpectralVector:
    return SpectralVector(f.grid, phi.samples * f.samples, f.tag)


def source_right(f: SpectralVector, phi: SpectralVector) -> SpectralVector:
    """(f . phi)(x,y) = f(x,y) phi(x - 1/su, y)."""
    # 1/su is m whole x-units, i.e. m*nx_unit grid steps
    step = rescale_factor(f.grid) * f.grid.nx_unit
    out = f.samples * phi.eval_row(-step, f.nx - step)
    return SpectralVector(f.grid, out, f.tag)


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
    lo = rescale_factor(f.grid) * f.grid.nx_unit
    out = np.conj(f.eval_row(lo, lo + f.nx)) * g.eval_row(lo, lo + f.nx)
    return SpectralVector(f.grid, out, BETA_INVARIANT)


# target-side bimodule operations ------------------------------------------

def target_left(psi: SpectralVector, F: SpectralVector) -> SpectralVector:
    return SpectralVector(F.grid, psi.samples * F.samples, F.tag)


def target_right(F: SpectralVector, psi: SpectralVector) -> SpectralVector:
    """(F . psi)(x,y) = F(x,y) psi(x+1,y)."""
    # one x-unit is nx_unit grid steps
    out = F.samples * psi.eval_row(F.grid.nx_unit, F.grid.nx_unit + F.nx)
    return SpectralVector(F.grid, out, F.tag)


def target_inner_L(F: SpectralVector, G: SpectralVector) -> SpectralVector:
    return SpectralVector(F.grid, F.samples * np.conj(G.samples), E_FIXED)


def target_inner_R(F: SpectralVector, G: SpectralVector) -> SpectralVector:
    """<F,G>_R(x,y) = conj F(x-1,y) G(x-1,y)."""
    unit = F.grid.nx_unit
    out = np.conj(F.eval_row(-unit, F.nx - unit)) * G.eval_row(-unit, F.nx - unit)
    return SpectralVector(F.grid, out, E_FIXED)


# seeded generators --------------------------------------------------------

TERMS = 4       # characters per random vector
MAX_FREQ = 2    # |n|, |m| of each character


class Terms(NamedTuple):
    """Drawn characters of S random vectors, each array (S, TERMS)."""

    n: np.ndarray       # x-frequencies
    m: np.ndarray       # y-frequencies
    coef: np.ndarray    # complex amplitudes


def term_streams(seed: int) -> List[np.random.Generator]:
    """The frequency and the amplitude generator of one seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]


def draw_terms(streams: Sequence[np.random.Generator], sample_count: int,
               kinds: int) -> List[Terms]:
    """Term tables of `kinds` random vectors per sample: all frequencies
    (n, m) in one draw from the first stream, all amplitudes (real,
    imaginary) in one draw from the second, each shaped (sample_count,
    kinds, TERMS, 2) with the sample axis outermost.  Each stream continues
    where the last draw left it, so consecutive chunks of samples draw the
    same terms whatever the chunk sizes."""
    freq, amp = streams
    shape = (sample_count, kinds, TERMS, 2)
    nm = freq.integers(-MAX_FREQ, MAX_FREQ + 1, shape)
    coef = amp.standard_normal(shape).view(complex)[..., 0]
    return [Terms(nm[:, k, :, 0], nm[:, k, :, 1], coef[:, k]) for k in range(kinds)]


def _superpose(grid: Grid, terms: Terms, ex: np.ndarray) -> np.ndarray:
    """(S, nx, ny) sums over t of coef_t ex_t(x) e(m_t y), added term by
    term: each character is the product of its x-factor ex_t (ex is (S,
    TERMS, nx)) and its y-character, so no full-grid character is formed."""
    ex = terms.coef[..., None] * ex
    ey = np.exp(2j * math.pi * terms.m[..., None] * grid.ys)
    out = ex[:, 0, :, None] * ey[:, 0, None, :]
    for t in range(1, TERMS):
        out += ex[:, t, :, None] * ey[:, t, None, :]
    return out


def _source_seeds(grid: Grid, terms: Terms) -> np.ndarray:
    """(S, 2 nx_unit, ny) seeds sum_t coef_t w(x) e(n_t x/2 + m_t y) on
    x in [0,2), with the window w(x) = sin^2(pi x/2) in the x-factors."""
    xs = np.arange(2 * grid.nx_unit) / grid.nx_unit
    window = np.sin(math.pi * xs / 2.0) ** 2        # vanishes at x=0 and x=2
    return _superpose(grid, terms,
                      window * np.exp(2j * math.pi * terms.n[..., None] * xs / 2.0))


def random_source_vector(grid: Grid, terms: Terms) -> SpectralVector:
    """Phase-twisted periodizations of compactly supported random seeds,
    one per row of the term table.

    Each seed lives on x in [0,2); summing its twisted unit translates
    telescopes into an exact member of the twisted subspace.
    """
    g = grid
    nxu = g.nx_unit
    seed = _source_seeds(g, terms)
    # g = seed|_[0,1) + U(seed)|_[0,1) with U the twisted unit translate
    translated = seed[:, nxu:][..., g.y_roll(-g.sv_steps)] * g.twist(-1, -1)
    return SpectralVector(g, seed[:, :nxu] + translated, X_BETA_USTAR_ALPHA)


def random_invariant_function(grid: Grid, terms: Terms) -> SpectralVector:
    """Random beta-invariant functions from the invariant characters
    e(n x + m (y - sv x)) = e((n - m sv) x) e(m y), one per row of the term
    table."""
    xs = np.arange(grid.nx_unit) / grid.nx_unit
    kx = terms.n - terms.m * float(grid.params.sv)
    return SpectralVector(
        grid, _superpose(grid, terms, np.exp(2j * math.pi * kx[..., None] * xs)),
        BETA_INVARIANT)


# verification -------------------------------------------------------------

def _maxdiff(a: SpectralVector, b: SpectralVector) -> float:
    return float(np.max(np.abs(a.samples - b.samples)))


def membership_transport_defect(f: SpectralVector,
                                sf: Optional[SpectralVector] = None) -> float:
    """Violation of the E-subspace twist by S(f), with S evaluated from its
    formula on both sides (the stored-sample extension would be circular);
    a caller that holds sf = map_S(f), the formula on [0, su), passes it."""
    g = f.grid
    lhs = _S_rows(f, 0, g.su_steps) if sf is None else sf.samples
    rhs = g.twist(1, 1) * _S_rows(f, -g.su_steps, 0)[..., g.y_roll(g.sv_steps)]
    return float(np.max(np.abs(lhs - rhs)))


def verify_bimodule_preservation(grid: Grid, sample_count: int = 20,
                                 seed: int = 0, tol: float = 1e-10) -> Dict[str, object]:
    """Measure the four preservation identities on seeded random members,
    and that S maps both source vectors f and g into the first subspace.

    The samples are evaluated as batches of at most lattice.GRID_BUDGET
    seed points (S * 2 nx_unit * ny), drawn in turn from term_streams(seed);
    each identity's worst value is the max over all batches.
    """
    streams = term_streams(seed)
    batches = []
    chunk = max(1, lattice.GRID_BUDGET // (2 * grid.nx_unit * grid.ny))
    for start in range(0, sample_count, chunk):
        f_terms, g_terms, phi_terms = draw_terms(
            streams, min(chunk, sample_count - start), 3)
        f = random_source_vector(grid, f_terms)
        gv = random_source_vector(grid, g_terms)
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
            "membership_transport": np.max([membership_transport_defect(f, sf),
                                            membership_transport_defect(gv, sg)])})
    # np.max keeps a NaN, which max() drops behind a number
    worst = {k: float(np.max([b[k] for b in batches])) for k in batches[0]}
    checks = {k: {"violation": v, "tol": tol, "pass": bool(v <= tol)}
              for k, v in worst.items()}
    return {
        "sample_count": sample_count,
        "seed": seed,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }

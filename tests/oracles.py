"""Oracles of the tests: the critical-point equations applied to a vector,
the first variation of YM in closed form and its central difference, the
Grassmannian curvature in its star form with its skew test, and the
invariance actions of the two flavors.  The program computes criticality
as elements of E (yangmills.euler_lagrange_elements) and the curvature
from the three nabla0_W R (calculus.curvature_closed); these independent
routes check it.  The tests' helpers that no command runs live here too:
the connection nabla0 + G applied to a vector along one direction (the
commands apply only nabla0, along every direction in one act_right), the
curvature by its operator definition, the commutator with a
multiplication operator, the Laplacian of flavor D, an element comparison,
the pointwise product and conjugate of sampled fields, the closed-form
frequencies of the dual characters, the battery of random test vectors
and a random perturbation.  The
2-form pairing as three separate star products is the reference that the
batched products of yangmills.ym_of_curvature must equal bit for bit, and
bits_equal compares two arrays to the sign of each zero.  The
bimodule kernels, algebra.window and morita's SpectralVector.eval_row
with every twist phase multiplied and every y-gather made, also by a
phase of 1 and a roll of 0, are the references of the kernels that skip
those.  The faults
that the tests inject live here as well: a Morita source vector built and
extended with a wrong unitary u, and mutants of the Grid's skew-torus
tables.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, List, Optional, Sequence

import numpy as np

from qhm import jets, morita
from qhm.algebra import (AlgebraElement, D_FLAVOR, E_FLAVOR, adjoint, bracket,
                         derivation, star, trace)
from qhm.bimodule import act_left, act_right, inner_D, inner_E
from qhm.calculus import (Connection, Curvature2Form, Perturbation,
                          curvature_closed, curvature_perturbed, mult_element)
from qhm.lattice import CHAIN_DEPTH, Grid, ScalarField, TorusFunction, y_bandwidth
from qhm.random_fields import (random_module_vector, random_torus_function,
                               smooth_envelope)
from qhm.yangmills import BASIS, ym_value


def connect(nabla: Connection, w: str, f: ScalarField, phi: AlgebraElement,
            mult: Optional[AlgebraElement] = None) -> ScalarField:
    """nabla_W f = R . delta_W(phi) + G_W f along one basis direction w,
    given phi = <R, f>_D, which serves every direction.

    A caller applying it along several directions can build the
    perturbation's element `mult` along w once and pass it in; `mult` may
    carry a longer chain than f, since act_left truncates.
    """
    (out,) = act_right(nabla.R, phi, w).members()
    if nabla.perturbation is not None:
        if mult is None:
            mult = mult_element(nabla.perturbation.component(w), max(f.depth, 1))
        out = out + act_left(mult, f)
    return out


def nabla_of(nabla: Connection, w: str, f: ScalarField) -> ScalarField:
    """nabla_W f, with the <R, f>_D that connect takes formed here."""
    return connect(nabla, w, f, inner_D(nabla.R, f))


def curvature_definition(nabla: Connection, w1: str, w2: str,
                         f: ScalarField) -> ScalarField:
    """Theta(W1,W2) f = nabla_W1 nabla_W2 f - nabla_W2 nabla_W1 f
    - nabla_[W1,W2] f, with [X,Y] = cZ."""
    out = nabla_of(nabla, w1, nabla_of(nabla, w2, f)) \
        - nabla_of(nabla, w2, nabla_of(nabla, w1, f))
    sign, lbl = bracket(w1, w2)
    if lbl is not None:
        out = out - nabla_of(nabla, lbl, f).scaled(sign * nabla.R.grid.params.c)
    return out


def commutator_mult(nabla0: Connection, g: TorusFunction, w: str,
                    f: ScalarField) -> ScalarField:
    """[nabla0_W, G] f with G acting by its multiplication-type element."""
    t = mult_element(g, max(f.depth, 1))
    return nabla_of(nabla0, w, act_left(t, f)) - act_left(t, nabla_of(nabla0, w, f))


def pair_forms(a: Curvature2Form, b: Curvature2Form) -> AlgebraElement:
    """{A,B}_E = sum over basis 2-vectors of A(Zi^Zj) * B(Zi^Zj)."""
    if a.xy.grid != b.xy.grid:
        raise ValueError("grid mismatch")
    return star(a.xy, b.xy) + star(a.xz, b.xz) + star(a.yz, b.yz)


def character_frequencies(grid: Grid):
    """(kx, ky) of the dual characters chi_{n,m} = e(kx x + ky y) in the
    fft layout of TorusFunction.fft, in closed form: kx = (n - sv m)/su,
    ky = m."""
    n = np.fft.fftfreq(grid.su_steps, d=1.0 / grid.su_steps)[:, None]
    m = np.fft.fftfreq(grid.ny, d=1.0 / grid.ny)[None, :]
    p = grid.params
    kx = (n - float(p.sv) * m) / float(p.su)
    return kx, np.broadcast_to(m, kx.shape)


def pointwise_mul(f: ScalarField, g: ScalarField) -> ScalarField:
    """f g on the rows both are supported on, by the Leibniz rule."""
    depth = min(f.depth, g.depth)
    lo, hi = max(f.i0, g.i0), min(f.i1, g.i1)
    if hi <= lo:
        return ScalarField.zeros(f.grid, depth)
    return ScalarField(f.grid, lo, jets.mul(f.window(lo, hi),
                                            g.window(lo, hi))).trimmed()


def conj_field(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, f.i0, np.conj(f.chain))


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and the same bits in every entry: values, and the sign
    of a zero in either part of a complex number."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.array_equal(a.view(np.uint8), b.view(np.uint8))


def laplacian(a: AlgebraElement) -> AlgebraElement:
    """delta_X^2 + delta_Y^2 on flavor D."""
    return (derivation("X", derivation("X", a))
            + derivation("Y", derivation("Y", a)))


def element_allclose(a: AlgebraElement, b: AlgebraElement, tol: float = 1e-12) -> bool:
    scale = max(a.norm_inf(), b.norm_inf(), 1.0)
    return (a - b).norm_inf() <= tol * scale


def make_battery(grid: Grid, count: int, seed: int,
                 include: Sequence[ScalarField] = ()) -> List[ScalarField]:
    """Deterministic battery of smooth test vectors.

    Pairs of battery vectors carry the pairwise y-band (lattice.y_bandwidth),
    so a grid with fewer than 2B + 1 y-samples is refused: build it with
    make_grid(..., pairwise=True).
    """
    band = y_bandwidth(grid.params, pairwise=True)
    if grid.ny < 2 * band + 1:
        raise ValueError(f"ny = {grid.ny} cannot hold the battery's pairwise "
                         f"y-band {band}; it needs at least {2 * band + 1}")
    rng = np.random.default_rng(seed)
    env = smooth_envelope(grid)
    return list(include) + [random_module_vector(grid, rng, envelope=env)
                            for _ in range(count)]


def random_perturbation(grid: Grid, rng: np.random.Generator) -> Perturbation:
    return Perturbation(random_torus_function(grid, rng),
                        random_torus_function(grid, rng),
                        random_torus_function(grid, rng))


def curvature_star_form(R: ScalarField) -> Curvature2Form:
    """Grassmannian curvature as
    Theta0(W1,W2) = < R . (delta_W1 Q delta_W2 Q - delta_W2 Q delta_W1 Q), R >_E
    with Q = <R,R>_D: six stars of the derived projections."""
    q = inner_D(R, R)
    dq = {w: derivation(w, q) for w in "XYZ"}

    def comp(w1, w2):
        anti = star(dq[w1], dq[w2]) - star(dq[w2], dq[w1])
        return inner_E(act_right(R, anti), R)

    return Curvature2Form(comp("X", "Y"), comp("X", "Z"), comp("Y", "Z"))


def invariance_action(a: AlgebraElement, k: int) -> AlgebraElement:
    """rho_k on flavor D, gamma_k on flavor E (exact phase bookkeeping).

    rho_k Phi (x,y,p) = conj-e(c k p (y - p sv/2)) Phi(x+k, y, p)
    gamma_k Psi(x,y,p) = e(c p k (y - k sv/2)) Psi(x - k su, y - k sv, p)
    """
    g = a.grid
    comps = {}
    for p in a.p_support:
        if a.flavor == D_FLAVOR:
            w = a.eval_window(p, 0, a.nxd, dxs=k * g.nx_unit, dys=0)
            ph = np.conj(g.twist(k, p))
        else:
            w = a.eval_window(p, 0, a.nxd, dxs=-k * g.su_steps, dys=-k * g.sv_steps)
            ph = g.twist(p, k)
        comps[p] = w * ph
    return AlgebraElement(a.flavor, g, comps)


def invariance_defect(a: AlgebraElement, k: int = 1) -> float:
    """Sup-norm of (action_k - id) applied to the element."""
    return (invariance_action(a, k) - a).norm_inf()


def skew_defect(theta: Curvature2Form) -> float:
    """Max violation of adjoint(component) = -component."""
    return float(np.max([(adjoint(t) + t).norm_inf()
                         for t in (theta.xy, theta.xz, theta.yz)]))


def euler_lagrange_apply(nabla: Connection, theta: Curvature2Form,
                         f: ScalarField) -> Dict[str, ScalarField]:
    """Left sides of the critical-point equations applied to f as
    operators, keyed by basis element i and assembled generically from the
    bracket table (the operator oracle for the elements of
    yangmills.euler_lagrange_elements):

    sum_j [nabla_{Z_j}, Theta(Z_i ^ Z_j)] f - sum_{j<k} c^i_{jk} Theta(Z_j ^ Z_k) f

    Each nabla_{Z_j} f enters the commutators of two equations.  For j < k,
    u = Theta(Z_j ^ Z_k) f is differentiated along Z_k for equation j and,
    as Theta(Z_k ^ Z_j) f = -u, along Z_j for equation k.  So the connection
    meets four vectors, f and the three u, and one <R, v>_D per vector v
    serves all its directions; the perturbation's elements are built once.
    """
    c = nabla.R.grid.params.c
    pert = nabla.perturbation
    mults = {} if pert is None else {
        j: mult_element(pert.component(j), max(f.depth, 1)) for j in BASIS}

    def along(v: ScalarField, dirs):
        phi = inner_D(nabla.R, v)
        return [connect(nabla, j, v, phi, mults.get(j)) for j in dirs]

    nabla_f = dict(zip(BASIS, along(f, BASIS)))
    eqs: Dict[str, ScalarField] = {}
    brackets = []

    def add(i: str, term: ScalarField):
        eqs[i] = term if i not in eqs else eqs[i] + term

    for a, b in combinations(BASIS, 2):
        t = theta.component(a, b)
        u = act_left(t, f)
        along_b, along_a = along(u, (b, a))
        add(a, along_b - act_left(t, nabla_f[b]))
        add(b, -along_a - act_left(t.scaled(-1), nabla_f[a]))
        sign, lbl = bracket(a, b)
        if sign:
            brackets.append((lbl, u.scaled(sign * c)))
    for lbl, term in brackets:
        eqs[lbl] = eqs[lbl] - term
    return eqs


def ym_directional(nabla: Connection, direction: Perturbation, t: float = 1e-4,
                   theta0: Optional[Curvature2Form] = None) -> float:
    """Central-difference d/dt YM(nabla + t*direction) at t=0."""
    if theta0 is None:
        theta0 = curvature_closed(nabla.R)
    base = nabla.perturbation
    if base is None:
        zero = TorusFunction.zeros(nabla.R.grid)
        base = Perturbation(zero, zero, zero)

    def at(tt: float) -> float:
        p = Perturbation(*(g + tt * h for (_, g), (_, h)
                           in zip(base.items(), direction.items())))
        return ym_value(Connection(nabla.R, p), theta0)

    return (at(t) - at(-t)) / (2 * t)


def first_variation(nabla: Connection, direction: Perturbation) -> float:
    """Exact first variation of YM along a multiplication-type direction.

    d/dt YM = -2 tau_E( Theta_XY (dxH1 - dyH2 - cH3)
                      + Theta_XZ (-dyH3) + Theta_YZ (-dxH3) ).
    """
    c = nabla.R.grid.params.c
    theta = curvature_perturbed(curvature_closed(nabla.R), nabla.perturbation, c,
                                CHAIN_DEPTH)
    h1, h2, h3 = direction.g1, direction.g2, direction.g3
    dxy = mult_element(h1.d_dx() - h2.d_dy() - float(c) * h3, 1)
    dxz = mult_element(-h3.d_dy(), 1)
    dyz = mult_element(-h3.d_dx(), 1)
    val = -(trace(star(theta.xy, dxy)) + trace(star(theta.xz, dxz))
            + trace(star(theta.yz, dyz))) * 2.0
    return float(val.real)


# -- the kernels with every phase multiplied and every y-gather made ---------
#
# inner_D, inner_E, act_right, algebra.window and morita's
# SpectralVector.eval_row skip the multiply by a twist phase that is exactly
# 1 (twist(a, b) with a b = 0) and the y-gather by a roll of 0 mod ny.
# These are the same kernels with neither skip.


def phased_window(chain: np.ndarray, flavor: str, grid: Grid, p: int, i_lo: int,
                  i_hi: int, depth: int, dxs: int = 0, dys: int = 0) -> np.ndarray:
    """algebra.window of a present component, cell by cell."""
    if flavor == D_FLAVOR:
        cell, shift, phase = grid.nx_unit, 0, lambda k: grid.twist(k, p)
    else:
        cell, shift, phase = grid.su_steps, grid.sv_steps, lambda k: grid.twist(p, k)
    lo, hi = i_lo + dxs, i_hi + dxs
    out = np.empty((depth + 1, hi - lo) + chain.shape[2:], complex)
    for k in range(lo // cell, (hi - 1) // cell + 1):
        r0, r1 = max(lo, k * cell), min(hi, (k + 1) * cell)
        vals = chain[:depth + 1, r0 - k * cell:r1 - k * cell][..., grid.y_roll(k * shift)]
        out[:, r0 - lo:r1 - lo] = vals * phase(k)
    return out[..., grid.y_roll(-dys)]


def phased_inner_D(f: ScalarField, g: ScalarField) -> AlgebraElement:
    """bimodule.inner_D of two nonempty vectors."""
    grid = f.grid
    N, S, V = grid.nx_unit, grid.su_steps, grid.sv_steps
    d = min(f.depth, g.depth)
    comps = {}
    for p in range(-((g.i1 - f.i0 - 1) // S), (f.i1 - g.i0 - 1) // S + 1):
        lo, hi = max(f.i0, g.i0 + p * S), min(f.i1, g.i1 + p * S)
        b = g.chain[:d + 1, lo - p * S - g.i0:hi - p * S - g.i0][..., grid.y_roll(p * V)]
        term = jets.mul(f.chain[:d + 1, lo - f.i0:hi - f.i0], np.conj(b))
        acc = np.zeros((d + 1, N) + term.shape[2:], complex)
        for k in range(lo // N, (hi - 1) // N + 1):
            r0, r1 = max(lo, k * N), min(hi, (k + 1) * N)
            ph = np.conj(grid.twist(k, p))
            acc[:, r0 - k * N:r1 - k * N] += term[:, r0 - lo:r1 - lo] * ph
        comps[p] = acc
    return AlgebraElement(D_FLAVOR, grid, comps)


def phased_inner_E(f: ScalarField, g: ScalarField) -> AlgebraElement:
    """bimodule.inner_E of two nonempty vectors."""
    grid = f.grid
    N, S, V = grid.nx_unit, grid.su_steps, grid.sv_steps
    d = min(f.depth, g.depth)
    comps = {}
    for p in range(-((f.i1 - g.i0 - 1) // N), (g.i1 - f.i0 - 1) // N + 1):
        lo, hi = max(f.i0, g.i0 - p * N), min(f.i1, g.i1 - p * N)
        term = jets.mul(np.conj(f.chain[:d + 1, lo - f.i0:hi - f.i0]),
                        g.chain[:d + 1, lo + p * N - g.i0:hi + p * N - g.i0])
        acc = np.zeros((d + 1, S) + term.shape[2:], complex)
        for k in range(-((hi - 1) // S), -(lo // S) + 1):
            r0, r1 = max(lo, -k * S), min(hi, S - k * S)
            acc[:, r0 + k * S:r1 + k * S] += \
                term[:, r0 - lo:r1 - lo][..., grid.y_roll(k * V)] * grid.twist(p, k)
        comps[p] = acc
    return AlgebraElement(E_FLAVOR, grid, comps)


def gathered_act_right(g: ScalarField, phi: AlgebraElement) -> ScalarField:
    """bimodule.act_right of a nonzero element on a nonempty vector, with
    the windows of phased_window."""
    grid = g.grid
    S, V = grid.su_steps, grid.sv_steps
    qs = phi.p_support
    d = min(phi.depth, g.depth)
    lo = g.i0 - qs[-1] * S
    acc = np.zeros((d + 1, g.nx + (qs[-1] - qs[0]) * S, grid.ny), complex)
    for q in qs:
        vals = phased_window(phi.comps[q], D_FLAVOR, grid, q, g.i0, g.i1, d)
        term = jets.mul(g.chain, np.conj(vals))
        r0 = g.i0 - q * S - lo
        acc[:, r0:r0 + g.nx] += term[..., grid.y_roll(-q * V)]
    return ScalarField(grid, lo, acc).trimmed()


def phased_eval_row(v: morita.SpectralVector, lo: int, hi: int,
                    stride: int = 1) -> np.ndarray:
    """morita.SpectralVector.eval_row, cell by cell."""
    g = v.grid
    p = morita._TAG_P[v.tag]
    m = abs(stride)
    if stride < 0:
        lo, hi = 1 - hi, 1 - lo
    rows, cell = v.samples[:, ::m], v.nx // m
    out = np.empty((len(rows), hi - lo, g.ny), complex)
    for k in range(lo // cell, (hi - 1) // cell + 1):
        r0, r1 = max(lo, k * cell), min(hi, (k + 1) * cell)
        vals = rows[:, r0 - k * cell:r1 - k * cell][..., g.y_roll(k * g.sv_steps)]
        out[:, r0 - lo:r1 - lo] = vals * g.twist(p, k)
    return out if stride > 0 else out[:, ::-1]


@dataclass(frozen=True)
class BrokenUnitaryVector(morita.SpectralVector):
    """A Morita vector whose unit cell crosses with the wrong unitary u:
    each crossed cell multiplies by twist(p, 1) e(p shift), so k cells by
    twist(p, k) e(p k shift)."""

    shift: float

    def eval_row(self, lo: int, hi: int, stride: int = 1) -> np.ndarray:
        g = self.grid
        p = morita._TAG_P[self.tag]
        e = 2j * math.pi * p * self.shift
        m = abs(stride)
        if stride < 0:
            lo, hi = 1 - hi, 1 - lo
        out = g.twisted_rows(self.samples[:, ::m], lo, hi, self.nx // m, g.sv_steps,
                             lambda k: g.twist(p, k) * np.exp(e * k))
        return out if stride > 0 else out[:, ::-1]


def broken_source_vector(grid: Grid, terms: morita.Terms,
                         shift: float) -> BrokenUnitaryVector:
    """morita.random_source_vector with the unit translate's phase off by
    e(shift), extended with the same wrong unitary."""
    nxu = grid.nx_unit
    seed = morita._source_seeds(grid, terms)
    ph = grid.twist(-1, -1) * np.exp(2j * math.pi * shift)
    translated = seed[:, nxu:][..., grid.y_roll(-grid.sv_steps)] * ph
    return BrokenUnitaryVector(grid, seed[:, :nxu] + translated,
                               morita.X_BETA_USTAR_ALPHA, shift)


def inject_broken_unitary(monkeypatch, shift: float) -> None:
    """Make verify_bimodule_preservation build the second source vector g of
    each batch with the wrong unitary.  f stays clean: one corruption of both
    would cancel in the conjugate pairs of the inner products."""
    clean = morita.random_source_vector
    built = []

    def build(grid, terms):
        built.append(terms)
        if len(built) % 2:
            return clean(grid, terms)
        return broken_source_vector(grid, terms, shift)

    monkeypatch.setattr(morita, "random_source_vector", build)


def _sv_sign(grid):
    # kx = (n + sv m)/su instead of (n - sv m)/su
    kx, ky = character_frequencies(grid)
    return kx + 2 * float(grid.params.sv / grid.params.su) * ky, ky[0]


def _mode_off_by_one(grid):
    # every character labelled (n, m + 1)
    kx, ky = character_frequencies(grid)
    return kx - float(grid.params.sv / grid.params.su), ky[0] + 1


def set_grid_table(monkeypatch, name, build):
    """Make `build(grid)` the Grid's cached table `name` for one test."""
    table = cached_property(build)
    table.__set_name__(Grid, name)
    monkeypatch.setattr(Grid, name, table)


def patch_spectral_mutant(monkeypatch, mutant):
    """Give every Grid built from here on the skew-torus tables of a
    mutant: "shear" swaps the two shear phases, which flips the shear's
    sign; "sv" and "mode" build the d/dx, d/dy and Laplace tables from
    wrong frequencies (kx, ky), with the program's Nyquist zeros."""
    if mutant == "shear":
        fwd, inv = (vars(Grid)[name].func for name in ("shear_phase", "shear_phase_inv"))
        set_grid_table(monkeypatch, "shear_phase", inv)
        set_grid_table(monkeypatch, "shear_phase_inv", fwd)
        return
    frequencies = {"sv": _sv_sign, "mode": _mode_off_by_one}[mutant]

    def tables(grid):
        kx, ky = frequencies(grid)
        dx, dy = 2j * math.pi * kx, 2j * math.pi * ky
        if grid.ny % 2 == 0:
            dx[:, grid.ny // 2] = dy[grid.ny // 2] = 0.0
        if grid.su_steps % 2 == 0:
            dx[grid.su_steps // 2] = 0.0
        return {"dx_multiplier": dx, "dy_multiplier": dy,
                "laplace_multiplier": -4 * math.pi ** 2 * (kx ** 2 + ky ** 2)}

    for name in ("dx_multiplier", "dy_multiplier", "laplace_multiplier"):
        set_grid_table(monkeypatch, name, lambda grid, _name=name: tables(grid)[_name])

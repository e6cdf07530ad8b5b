"""Oracles of the tests: the critical-point equations applied to a vector,
the first variation of YM in closed form and its central difference, the
Grassmannian curvature in its star form with its skew test, and the
invariance actions of the two flavors.  The program computes criticality
as elements of E (yangmills.euler_lagrange_elements) and the curvature
from the three nabla0_W R (calculus.curvature_closed); these independent
routes check it.  The tests' helpers that no command runs live here too:
the curvature by its operator definition, the commutator with a
multiplication operator, the Laplacian of flavor D, an element comparison,
the battery of random test vectors and a random perturbation.  The
2-form pairing as three separate star products is the reference that the
batched products of yangmills.ym_of_curvature must equal bit for bit, and
bits_equal compares two arrays to the sign of each zero.  The faults
that the Morita tests inject live here as well: a source vector built and
extended with a wrong unitary u.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence

import numpy as np

from qhm import morita
from qhm.algebra import (AlgebraElement, D_FLAVOR, adjoint, bracket, derivation,
                         star, trace)
from qhm.bimodule import ModuleVector, act_left, act_right, inner_D, inner_E
from qhm.calculus import (Connection, Curvature2Form, Perturbation, connect,
                          curvature_closed, curvature_of, mult_element)
from qhm.lattice import Grid, ScalarField, TorusFunction, y_bandwidth
from qhm.random_fields import (random_module_vector, random_torus_function,
                               smooth_envelope)
from qhm.yangmills import BASIS, ym_value


def curvature_definition(nabla: Connection, w1: str, w2: str,
                         f: ModuleVector) -> ModuleVector:
    """Theta(W1,W2) f = nabla_W1 nabla_W2 f - nabla_W2 nabla_W1 f
    - nabla_[W1,W2] f, with [X,Y] = cZ."""
    out = connect(nabla, w1, connect(nabla, w2, f)) \
        - connect(nabla, w2, connect(nabla, w1, f))
    sign, lbl = bracket(w1, w2)
    if lbl is not None:
        out = out - connect(nabla, lbl, f).scaled(sign * nabla.grid.params.c)
    return out


def commutator_mult(nabla0: Connection, g: TorusFunction, w: str,
                    f: ModuleVector) -> ModuleVector:
    """[nabla0_W, G] f with G acting by its multiplication-type element."""
    t = mult_element(g, max(f.depth, 1))
    return connect(nabla0, w, act_left(t, f)) - act_left(t, connect(nabla0, w, f))


def pair_forms(a: Curvature2Form, b: Curvature2Form) -> AlgebraElement:
    """{A,B}_E = sum over basis 2-vectors of A(Zi^Zj) * B(Zi^Zj)."""
    if a.xy.grid != b.xy.grid:
        raise ValueError("grid mismatch")
    return star(a.xy, b.xy) + star(a.xz, b.xz) + star(a.yz, b.yz)


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


def curvature_star_form(R: ModuleVector) -> Curvature2Form:
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
                         f: ModuleVector) -> Dict[str, ModuleVector]:
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
    c = nabla.grid.params.c
    pert = nabla.perturbation
    mults = {} if pert is None else {
        j: mult_element(pert.component(j), max(f.depth, 1)) for j in BASIS}

    def along(v: ModuleVector, dirs):
        phi = inner_D(nabla.R, v)
        return [connect(nabla, j, v, phi, mults.get(j)) for j in dirs]

    nabla_f = dict(zip(BASIS, along(f, BASIS)))
    eqs: Dict[str, ModuleVector] = {}
    brackets = []

    def add(i: str, term: ModuleVector):
        eqs[i] = term if i not in eqs else eqs[i] + term

    for a, b in combinations(BASIS, 2):
        t = theta.component(a, b)
        u = act_left(t, f)
        along_b, along_a = along(u, (b, a))
        add(a, along_b - act_left(t, nabla_f[b]))
        add(b, -along_a - act_left(-t, nabla_f[a]))
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
        base = Perturbation.zero(nabla.grid)

    def at(tt: float) -> float:
        p = base + direction.scaled(tt)
        return ym_value(Connection(nabla.R, p), theta0)

    return (at(t) - at(-t)) / (2 * t)


def first_variation(nabla: Connection, direction: Perturbation,
                    theta0: Optional[Curvature2Form] = None) -> float:
    """Exact first variation of YM along a multiplication-type direction.

    d/dt YM = -2 tau_E( Theta_XY (dxH1 - dyH2 - cH3)
                      + Theta_XZ (-dyH3) + Theta_YZ (-dxH3) ).
    """
    theta = curvature_of(nabla, theta0)
    c = nabla.grid.params.c
    h1, h2, h3 = direction.g1, direction.g2, direction.g3
    dxy = mult_element(h1.d_dx() - h2.d_dy() - float(c) * h3, 1)
    dxz = mult_element(-h3.d_dy(), 1)
    dyz = mult_element(-h3.d_dx(), 1)
    val = -(trace(star(theta.xy, dxy)) + trace(star(theta.xz, dxz))
            + trace(star(theta.yz, dyz))) * 2.0
    return float(val.real)


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

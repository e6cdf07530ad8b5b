"""The 2-form pairing, the Yang-Mills functional, and criticality residuals.

YM(nabla) = -tau_E({Theta, Theta}_E) with the pairing summed over the
three basis 2-vectors.  A connection is critical when the three elements

  [nabla_Y, Theta(X,Y)] + [nabla_Z, Theta(X,Z)]
  [nabla_X, Theta(Y,X)] + [nabla_Z, Theta(Y,Z)]
  [nabla_X, Theta(Z,X)] + [nabla_Y, Theta(Z,Y)] - c Theta(X,Y)

of E vanish.  As <R,R>_E = Id, f = R . <R,f>_D, so for T in E and
t = <R, T . R>_D the commutator [nabla0_W, T] is the element
<R . delta_W(t), R>_E (Connes-Rieffel); a multiplication-type perturbation
G adds G * T - T * G.  The residuals are the elements' sup-norms over the
curvature scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional

from .algebra import AlgebraElement, E_FLAVOR, bracket, star, trace
from .bimodule import ModuleVector, act_left, act_right, inner_D, inner_E
from .calculus import (Connection, Curvature2Form, Perturbation, connect,
                       curvature_closed, curvature_of, mult_element)

BASIS = ("X", "Y", "Z")


def pair_forms(a: Curvature2Form, b: Curvature2Form) -> AlgebraElement:
    """{A,B}_E = sum over basis 2-vectors of A(Zi^Zj) * B(Zi^Zj)."""
    if a.xy.grid != b.xy.grid:
        raise ValueError("grid mismatch")
    return star(a.xy, b.xy) + star(a.xz, b.xz) + star(a.yz, b.yz)


def ym_of_curvature(theta: Curvature2Form) -> float:
    val = -trace(pair_forms(theta, theta))
    scale = max(abs(val), 1.0)
    if abs(val.imag) > 1e-10 * scale:
        raise ValueError(f"YM value is not real ({val.imag:.2e}); "
                         "curvature lost skew-symmetry upstream")
    return float(val.real)


def ym_value(nabla: Connection, theta0: Optional[Curvature2Form] = None) -> float:
    return ym_of_curvature(curvature_of(nabla, theta0))


def euler_lagrange_apply(nabla: Connection, theta: Curvature2Form,
                         f: ModuleVector) -> Dict[str, ModuleVector]:
    """Left sides of the critical-point equations applied to f as
    operators, keyed by basis element i and assembled generically from the
    bracket table (the operator oracle for euler_lagrange_elements):

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


def euler_lagrange_elements(nabla: Connection,
                            theta: Curvature2Form) -> Dict[str, AlgebraElement]:
    """Left sides of the critical-point equations as elements of E, keyed
    by basis element i and assembled from the bracket table:

    sum_j [nabla_{Z_j}, Theta(Z_i ^ Z_j)] - sum_{j<k} c^i_{jk} Theta(Z_j ^ Z_k)

    For j < k, T = Theta(Z_j ^ Z_k) enters equation j through [nabla_{Z_k}, T]
    and equation k through -[nabla_{Z_j}, T]; one t = <R, T . R>_D serves
    both, and the perturbation's elements are built once.
    """
    R = nabla.R
    c = nabla.grid.params.c
    pert = nabla.perturbation
    mults = {} if pert is None else {
        j: mult_element(pert.component(j), 1) for j in BASIS}

    def commutator(t: AlgebraElement, t_hat: AlgebraElement, j: str):
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


@dataclass(frozen=True)
class Residuals:
    r1: float
    r2: float
    r3: float          # third equation
    r3_osc: float      # equals r3; bench/workloads.py's gate reads it
    scale: float       # curvature scale used for normalization


def critical_residuals(nabla: Connection,
                       theta0: Optional[Curvature2Form] = None,
                       theta: Optional[Curvature2Form] = None) -> Residuals:
    """Sup-norms of the three Euler-Lagrange elements over the curvature
    scale, the sup of the unperturbed and perturbed curvature components:
    a critical connection scores ~0, the Grassmannian one O(1) on the
    third equation.  A caller that already holds the curvature theta of
    nabla passes it in.
    """
    if theta0 is None:
        theta0 = curvature_closed(nabla.R)
    if theta is None:
        theta = curvature_of(nabla, theta0)
    cscale = max(theta0.norm_inf(), theta.norm_inf(), 1e-30)
    eqs = euler_lagrange_elements(nabla, theta)
    r1, r2, r3 = (eqs[i].norm_inf() / cscale for i in BASIS)
    return Residuals(r1=r1, r2=r2, r3=r3, r3_osc=r3, scale=cscale)


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

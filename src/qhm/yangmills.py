"""The 2-form pairing, the Yang-Mills functional, and criticality residuals.

YM(nabla) = -tau_E({Theta, Theta}_E) with the pairing summed over the
three basis 2-vectors.  A connection is critical when the three operator
equations

  [nabla_Y, Theta(X,Y)] + [nabla_Z, Theta(X,Z)] = 0
  [nabla_X, Theta(Y,X)] + [nabla_Z, Theta(Y,Z)] = 0
  [nabla_X, Theta(Z,X)] + [nabla_Y, Theta(Z,Y)] - c Theta(X,Y) = 0

hold; the residuals measure them as operators on a seeded battery of test
vectors, normalized by the unperturbed curvature scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Sequence

import numpy as np

from .algebra import AlgebraElement, bracket, star, trace
from .bimodule import ModuleVector, act_left, inner_D
from .calculus import (Connection, Curvature2Form, Perturbation, connect,
                       curvature_closed, curvature_of, mult_element)
from .lattice import TorusFunction

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
    """Left sides of the critical-point equations on f, keyed by basis
    element i and assembled generically from the bracket table:

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


@dataclass(frozen=True)
class Residuals:
    r1: float
    r2: float
    r3: float          # full third equation
    r3_osc: float      # third equation with the constant c*a0 term removed
    scale: float       # curvature scale used for normalization


def critical_residuals(nabla: Connection, battery: Sequence[ModuleVector],
                       theta0: Optional[Curvature2Form] = None,
                       a0: complex = 0.0) -> Residuals:
    """Max relative residual of the three equations over the battery.

    Normalization: ||f||_inf times the sup of the unperturbed curvature
    components, so a critical connection scores ~0 while the Grassmannian
    connection scores O(1) on the third equation.  When a0 is supplied,
    r3_osc removes the constant multiplication operator c*a0 from equation
    three before measuring, per the zero-mode policy.  An empty battery
    raises ValueError: its maxima would read 0 without measuring anything.
    """
    if not battery:
        raise ValueError("critical_residuals needs a nonempty battery")
    if theta0 is None:
        theta0 = curvature_closed(nabla.R)
    theta = curvature_of(nabla, theta0)
    c = nabla.grid.params.c
    cscale = max(theta0.norm_inf(), theta.norm_inf(), 1e-30)
    const_el = None
    if a0 != 0.0:
        g = nabla.grid
        const_el = mult_element(TorusFunction(
            g, np.full((g.su_steps, g.ny), a0, complex)), 1)
    worst = [0.0, 0.0, 0.0, 0.0]
    for f in battery:
        fs = max(f.norm_inf(), 1e-30)
        # The norms read order 0 of each equation, and delta_Y, the only
        # derivation that uses up a chain order, acts once: order 1 of f
        # is the last one that reaches them.
        f = ModuleVector(f.grid, f.i0, f.chain[:2])
        eqs = euler_lagrange_apply(nabla, theta, f)
        for idx, i in enumerate(BASIS):
            r = eqs[i]
            worst[idx] = max(worst[idx], r.norm_inf() / (fs * cscale))
            if i == "Z":
                if const_el is not None:
                    # eq three contains -c*Theta(X,Y); adding back the
                    # constant operator isolates the oscillatory residual
                    r_osc = r + act_left(const_el, f).scaled(c)
                else:
                    r_osc = r
                worst[3] = max(worst[3], r_osc.norm_inf() / (fs * cscale))
    return Residuals(r1=worst[0], r2=worst[1], r3=worst[2], r3_osc=worst[3],
                     scale=cscale)


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

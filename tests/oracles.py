"""Operator oracles of the tests: the critical-point equations applied to a
vector, the first variation of YM in closed form, and its central
difference.  The program computes criticality as elements of E
(yangmills.euler_lagrange_elements); these independent routes check it.
"""

from itertools import combinations
from typing import Dict, Optional

from qhm.algebra import bracket, star, trace
from qhm.bimodule import ModuleVector, act_left, inner_D
from qhm.calculus import (Connection, Curvature2Form, Perturbation, connect,
                          curvature_closed, curvature_of, mult_element)
from qhm.yangmills import BASIS, ym_value


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

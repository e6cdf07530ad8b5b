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
from typing import Dict, List, Optional, Sequence

from .algebra import AlgebraElement, E_FLAVOR, bracket, star, trace
from .bimodule import act_left, act_right, inner_D, inner_E
from .calculus import (Connection, Curvature2Form, curvature_closed,
                       curvature_of, mult_element)

BASIS = ("X", "Y", "Z")


def pair_forms(a: Curvature2Form, b: Curvature2Form) -> AlgebraElement:
    """{A,B}_E = sum over basis 2-vectors of A(Zi^Zj) * B(Zi^Zj)."""
    if a.xy.grid != b.xy.grid:
        raise ValueError("grid mismatch")
    return star(a.xy, b.xy) + star(a.xz, b.xz) + star(a.yz, b.yz)


def ym_of_curvature(theta: Curvature2Form) -> float:
    # trace reads order 0, and order 0 of a product is a[0] * b[0]
    theta = Curvature2Form(theta.xy.upto(0), theta.xz.upto(0), theta.yz.upto(0))
    val = -trace(pair_forms(theta, theta))
    scale = max(abs(val), 1.0)
    if abs(val.imag) > 1e-10 * scale:
        raise ValueError(f"YM value is not real ({val.imag:.2e}); "
                         "curvature lost skew-symmetry upstream")
    return float(val.real)


def ym_value(nabla: Connection, theta0: Optional[Curvature2Form] = None) -> float:
    return ym_of_curvature(curvature_of(nabla, theta0, 0))


def euler_lagrange_elements(nablas: Sequence[Connection],
                            thetas: Sequence[Curvature2Form]
                            ) -> List[Dict[str, AlgebraElement]]:
    """Left sides of the critical-point equations as elements of E, one
    dict per connection keyed by basis element i and assembled from the
    bracket table:

    sum_j [nabla_{Z_j}, Theta(Z_i ^ Z_j)] - sum_{j<k} c^i_{jk} Theta(Z_j ^ Z_k)

    For j < k, T = Theta(Z_j ^ Z_k) enters equation j through [nabla_{Z_k}, T]
    and equation k through -[nabla_{Z_j}, T]; one t = <R, T . R>_D serves
    both, and the perturbation's elements are built once.  The connections
    share R, so the T of all of them pass through the bimodule kernels as
    one batch (AlgebraElement.stack), and both directions of each pair as
    one act_right.  Each product is formed to the chain order it reads: the
    elements are read at order 0, and delta_Y t reads order 1 of t.
    """
    R = nablas[0].R
    if any(nabla.R is not R for nabla in nablas):
        raise ValueError("the connections of one call must share R")
    grid = R.grid
    c = grid.params.c
    n = len(nablas)
    R0, R1 = R.upto(0), R.upto(1)
    mults = [{} if nabla.perturbation is None else {
        j: mult_element(nabla.perturbation.component(j), 0) for j in BASIS}
        for nabla in nablas]

    def commutator(inner: AlgebraElement, t: AlgebraElement,
                   mult: Optional[AlgebraElement]):
        if mult is None:
            return inner
        return inner + (star(mult, t) - star(t, mult))

    eqs = [{i: AlgebraElement.zero(E_FLAVOR, grid) for i in BASIS}
           for _ in nablas]
    for a, b in combinations(BASIS, 2):
        ts = [theta.component(a, b) for theta in thetas]
        t_hat = inner_D(R1, act_left(AlgebraElement.stack(
            [t.upto(1) for t in ts]), R1))
        # [nabla0_W, T] = <R . delta_W(t_hat), R>_E along b, then along a
        inner = inner_E(act_right(R0, t_hat, (b, a)), R0).members(2 * n)
        sign, lbl = bracket(a, b)
        for i, t in enumerate(ts):
            eq = eqs[i]
            eq[a] = eq[a] + commutator(inner[i], t, mults[i].get(b))
            eq[b] = eq[b] - commutator(inner[n + i], t, mults[i].get(a))
            if sign:
                eq[lbl] = eq[lbl] - t.scaled(sign * c)
    return eqs


@dataclass(frozen=True)
class Residuals:
    r1: float
    r2: float
    r3: float          # third equation
    r3_osc: float      # equals r3; bench/workloads.py's gate reads it
    scale: float       # curvature scale used for normalization


def critical_residuals(nablas: Sequence[Connection],
                       theta0: Optional[Curvature2Form] = None,
                       thetas: Optional[Sequence[Curvature2Form]] = None
                       ) -> List[Residuals]:
    """Sup-norms of the three Euler-Lagrange elements of each connection
    over its curvature scale, the sup of the unperturbed and perturbed
    curvature components: a critical connection scores ~0, the
    Grassmannian one O(1) on the third equation.  The connections share
    R; a caller that already holds their curvatures passes them in.
    """
    if theta0 is None:
        theta0 = curvature_closed(nablas[0].R)
    if thetas is None:
        # euler_lagrange_elements reads order 1 of the curvature at most
        thetas = [curvature_of(nabla, theta0, 1) for nabla in nablas]
    scale0 = theta0.norm_inf()
    out = []
    for theta, eqs in zip(thetas, euler_lagrange_elements(nablas, thetas)):
        cscale = max(scale0, theta.norm_inf(), 1e-30)
        r1, r2, r3 = (eqs[i].norm_inf() / cscale for i in BASIS)
        out.append(Residuals(r1=r1, r2=r2, r3=r3, r3_osc=r3, scale=cscale))
    return out

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
curvature scale.  The three components T of n connections pass through
the kernels as one batch of 3 n members, laid out direction-major by
act_right, and G * T and T * G are one batched star each; each equation
adds its terms pair by pair in the bracket table's order.
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


def ym_of_curvature(theta: Curvature2Form) -> float:
    """-tau_E({Theta, Theta}_E): the three products Theta(Zi^Zj) * Theta(Zi^Zj)
    are one 3-member star, added xy + xz + yz."""
    # trace reads order 0, and order 0 of a product is a[0] * b[0]
    comps = AlgebraElement.stack([t.upto(0) for t in (theta.xy, theta.xz, theta.yz)])
    xy, xz, yz = star(comps, comps).members(3)
    val = -trace(xy + xz + yz)
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
    share R, so T of pair k and connection i is member k n + i of one batch
    (AlgebraElement.stack), and [nabla0_W, T] member 3 n W + k n + i of one
    act_right along (X, Y, Z).  Each product is formed to the chain order
    it reads: the elements are read at order 0, and delta_Y t reads order 1.
    """
    R = nablas[0].R
    if any(nabla.R is not R for nabla in nablas):
        raise ValueError("the connections of one call must share R")
    grid = R.grid
    c = grid.params.c
    n = len(nablas)
    pairs = list(combinations(BASIS, 2))
    ts = [theta.component(a, b) for a, b in pairs for theta in thetas]
    m = len(ts)
    R0, R1 = R.upto(0), R.upto(1)
    # [nabla0_W, T] = <R . delta_W(t_hat), R>_E, t_hat = <R, T . R>_D
    t_hat = inner_D(R1, act_left(AlgebraElement.stack([t.upto(1) for t in ts]), R1))
    inner = inner_E(act_right(R0, t_hat, BASIS), R0).members(3 * m)
    del t_hat
    mults = [{} if nabla.perturbation is None else {
        j: mult_element(nabla.perturbation.component(j), 0) for j in BASIS}
        for nabla in nablas]
    # G_w * T - T * G_w of each perturbed connection's T along both
    # directions w of its pair, one batch
    keys = [(k, w) for k in range(m) if mults[k % n] for w in pairs[k // n]]
    mult_terms = {}
    if keys:
        G = AlgebraElement.stack([mults[k % n][w] for k, w in keys])
        T = AlgebraElement.stack([ts[k] for k, _ in keys])
        mult_terms = dict(zip(keys, (star(G, T) - star(T, G)).members(len(keys))))
        del G, T

    def commutator(k: int, w: str) -> AlgebraElement:
        out = inner[BASIS.index(w) * m + k]
        return out + mult_terms[(k, w)] if (k, w) in mult_terms else out

    eqs = [{i: AlgebraElement.zero(E_FLAVOR, grid) for i in BASIS}
           for _ in nablas]
    for pair, (a, b) in enumerate(pairs):
        sign, lbl = bracket(a, b)
        for i, eq in enumerate(eqs):
            k = pair * n + i
            eq[a] = eq[a] + commutator(k, b)
            eq[b] = eq[b] - commutator(k, a)
            if sign:
                eq[lbl] = eq[lbl] - ts[k].scaled(sign * c)
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

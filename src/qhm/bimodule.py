"""The equivalence bimodule between the two flavors.

Vectors are compactly x-supported ScalarFields on R x T.  The E-valued and
D-valued inner products and the two module actions below are the structure
maps; every x-translation involved (whole units for E, (su, sv) steps for D)
is an exact index move on the commensurate grid.

Conventions, with e(t) = exp(2 pi i t), su = 2 hbar mu, sv = 2 hbar nu:

  <f,g>_D (x,y,p) = sum_k conj-e(c k p (y - p sv/2)) f(x+k, y)
                                 conj g(x - p su + k, y - p sv)
  <f,g>_E (x,y,p) = sum_k e(c p k (y - k sv/2)) conj f(x - k su, y - k sv)
                                 g(x - k su + p, y - k sv)
  (Psi . f)(x,y)  = sum_q conj Psi(x,y,q) f(x+q, y)
  (g . Phi)(x,y)  = sum_q g(x + q su, y + q sv) conj Phi(x + q su, y + q sv, q)
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from . import jets
from .algebra import AlgebraElement, D_FLAVOR, E_FLAVOR
from .lattice import ScalarField

ModuleVector = ScalarField


def _phase(c: float, a: int, b: int, ys: np.ndarray, sv: float, sign: int) -> np.ndarray:
    return np.exp(sign * 2j * math.pi * c * a * b * (ys - b * sv / 2))


def inner_D(f: ModuleVector, g: ModuleVector) -> AlgebraElement:
    """D-valued inner product of two module vectors."""
    grid = f.grid
    N = grid.nx_unit
    S = grid.su_steps
    sv = float(grid.params.sv)
    ys = np.arange(grid.ny) * grid.hy_f
    d = min(f.depth, g.depth)
    comps: Dict[int, List[np.ndarray]] = {}
    if f.nx == 0 or g.nx == 0:
        return AlgebraElement.zero(D_FLAVOR, grid)
    p_lo = -((g.i1 - f.i0 - 1) // S) - 1
    p_hi = (f.i1 - g.i0 - 1) // S + 1
    k_lo = f.i0 // N
    k_hi = (f.i1 - 1) // N
    for p in range(p_lo, p_hi + 1):
        acc = None
        for k in range(k_lo, k_hi + 1):
            a = [f.window(k * N, (k + 1) * N, n) for n in range(d + 1)]
            if not np.any(a[0]):
                continue
            b = [np.conj(np.roll(
                g.window(k * N - p * S, (k + 1) * N - p * S, n),
                p * grid.sv_steps, axis=1)) for n in range(d + 1)]
            if not np.any(b[0]):
                continue
            term = jets.mul(a, b)
            ph = _phase(grid.params.c, k, p, ys, sv, -1)[None, :]
            term = [t * ph for t in term]
            acc = term if acc is None else [x + y for x, y in zip(acc, term)]
        if acc is not None:
            comps[p] = acc
    return AlgebraElement(D_FLAVOR, grid, comps)


def inner_E(f: ModuleVector, g: ModuleVector) -> AlgebraElement:
    """E-valued inner product of two module vectors."""
    grid = f.grid
    N = grid.nx_unit
    S = grid.su_steps
    sv = float(grid.params.sv)
    ys = np.arange(grid.ny) * grid.hy_f
    d = min(f.depth, g.depth)
    comps: Dict[int, List[np.ndarray]] = {}
    if f.nx == 0 or g.nx == 0:
        return AlgebraElement.zero(E_FLAVOR, grid)
    k_lo = -((f.i1 - 1) // S) - 1
    k_hi = (S - 1 - f.i0) // S + 1
    p_lo = -((f.i1 - g.i0 - 1) // N) - 1
    p_hi = (g.i1 - f.i0 - 1) // N + 1
    for p in range(p_lo, p_hi + 1):
        acc = None
        for k in range(k_lo, k_hi + 1):
            roll = k * grid.sv_steps
            a = [np.conj(np.roll(f.window(-k * S, S - k * S, n), roll, axis=1))
                 for n in range(d + 1)]
            if not np.any(a[0]):
                continue
            b = [np.roll(g.window(p * N - k * S, p * N + S - k * S, n), roll, axis=1)
                 for n in range(d + 1)]
            if not np.any(b[0]):
                continue
            term = jets.mul(a, b)
            ph = _phase(grid.params.c, p, k, ys, sv, +1)[None, :]
            term = [t * ph for t in term]
            acc = term if acc is None else [x + y for x, y in zip(acc, term)]
        if acc is not None:
            comps[p] = acc
    return AlgebraElement(E_FLAVOR, grid, comps)


def act_left(psi: AlgebraElement, f: ModuleVector) -> ModuleVector:
    """Left action of flavor E on a module vector."""
    if psi.flavor != E_FLAVOR:
        raise ValueError("left action needs flavor E")
    grid = f.grid
    acc = ScalarField.zeros(grid, min(psi.depth, f.depth))
    for q in psi.p_support:
        fs = f.shift_steps(q * grid.nx_unit, 0)
        if fs.nx == 0:
            continue
        w = psi.eval_field(q, fs.i0, fs.i1)
        acc = acc + w.conj() * fs
    return acc.trimmed()


def act_right(g: ModuleVector, phi: AlgebraElement) -> ModuleVector:
    """Right action of flavor D on a module vector."""
    if phi.flavor != D_FLAVOR:
        raise ValueError("right action needs flavor D")
    grid = g.grid
    acc = ScalarField.zeros(grid, min(phi.depth, g.depth))
    for q in phi.p_support:
        gs = g.shift_steps(q * grid.su_steps, q * grid.sv_steps)
        if gs.nx == 0:
            continue
        w = phi.eval_field(q, gs.i0, gs.i1,
                           dxs=q * grid.su_steps, dys=q * grid.sv_steps)
        acc = acc + gs * w.conj()
    return acc.trimmed()


def trace_E(a: AlgebraElement) -> complex:
    """tau_E(A) = integral of the p=0 component over [0,su) x T."""
    if a.flavor != E_FLAVOR:
        raise ValueError("trace_E needs flavor E")
    comp0 = a.component(0, 0)[0]
    return complex(np.sum(comp0)) * a.grid.hx_f * a.grid.hy_f

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

Either operand of each map may be a batch (AlgebraElement.stack, or a
ScalarField with a (depth + 1, nx, B, ny) chain); the other then gains a
singleton batch axis, and the result is the batch of the members' results,
bit for bit, on the union of their supports.  The members of a batch are
zero-padded to that union: every accumulator starts at +0 and only adds,
so the padding's +-0 terms change no value.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

import numpy as np

from . import jets
from .algebra import AlgebraElement, D_FLAVOR, E_FLAVOR, derive_component, window
from .lattice import ScalarField

ModuleVector = ScalarField


def inner_D(f: ModuleVector, g: ModuleVector) -> AlgebraElement:
    """D-valued inner product of two module vectors.

    Component p is one Leibniz product on the rows where f and the
    translate of g by p su are both supported, folded into [0, 1) block by
    block with the wrap phase of each block.
    """
    grid = f.grid
    N = grid.nx_unit
    S = grid.su_steps
    V = grid.sv_steps
    d = min(f.depth, g.depth)
    comps: Dict[int, jets.Chain] = {}
    if f.nx == 0 or g.nx == 0:
        return AlgebraElement.zero(D_FLAVOR, grid)
    for p in range(-((g.i1 - f.i0 - 1) // S), (f.i1 - g.i0 - 1) // S + 1):
        lo = max(f.i0, g.i0 + p * S)
        hi = min(f.i1, g.i1 + p * S)
        b = g.chain[:d + 1, lo - p * S - g.i0:hi - p * S - g.i0][..., grid.y_roll(p * V)]
        term = jets.mul(f.chain[:d + 1, lo - f.i0:hi - f.i0], np.conj(b, out=b))
        acc = np.zeros((d + 1, N) + term.shape[2:], complex)
        for k in range(lo // N, (hi - 1) // N + 1):
            r0, r1 = max(lo, k * N), min(hi, (k + 1) * N)
            ph = np.conj(grid.twist(k, p))
            acc[:, r0 - k * N:r1 - k * N] += term[:, r0 - lo:r1 - lo] * ph
        comps[p] = acc
    return AlgebraElement(D_FLAVOR, grid, comps)


def inner_E(f: ModuleVector, g: ModuleVector) -> AlgebraElement:
    """E-valued inner product of two module vectors.

    Component p is one Leibniz product on the rows where f and the
    translate of g by p units are both supported, folded into [0, su)
    translate by translate (k ascending) with the roll and phase of each.
    """
    grid = f.grid
    N = grid.nx_unit
    S = grid.su_steps
    V = grid.sv_steps
    d = min(f.depth, g.depth)
    comps: Dict[int, jets.Chain] = {}
    if f.nx == 0 or g.nx == 0:
        return AlgebraElement.zero(E_FLAVOR, grid)
    for p in range(-((f.i1 - g.i0 - 1) // N), (g.i1 - f.i0 - 1) // N + 1):
        lo = max(f.i0, g.i0 - p * N)
        hi = min(f.i1, g.i1 - p * N)
        term = jets.mul(np.conj(f.chain[:d + 1, lo - f.i0:hi - f.i0]),
                        g.chain[:d + 1, lo + p * N - g.i0:hi + p * N - g.i0])
        acc = np.zeros((d + 1, S) + term.shape[2:], complex)
        # rows [-kS, S - kS) of f land on [0, S)
        for k in range(-((hi - 1) // S), -(lo // S) + 1):
            r0, r1 = max(lo, -k * S), min(hi, S - k * S)
            acc[:, r0 + k * S:r1 + k * S] += \
                term[:, r0 - lo:r1 - lo][..., grid.y_roll(k * V)] * grid.twist(p, k)
        comps[p] = acc
    return AlgebraElement(E_FLAVOR, grid, comps)


def _no_rows(g: ModuleVector, phi: AlgebraElement, w=None,
             depth: int = 0) -> ModuleVector:
    """The zero of act_left and act_right: no rows, with the batch axis of
    a nonzero result."""
    batch = max([g.chain.shape[2:-1]] + [c.shape[2:-1] for c in phi.comps.values()])
    if w is not None and not isinstance(w, str):
        batch = (len(w) * (batch or (1,))[0],)
    return ScalarField(g.grid, 0,
                       np.zeros((depth + 1, 0) + batch + (g.grid.ny,), complex))


def act_left(psi: AlgebraElement, f: ModuleVector) -> ModuleVector:
    """Left action of flavor E on a module vector.

    Term q is one Leibniz product on the rows of f moved by -q units, added
    into a common buffer; psi's window is evaluated only to the depth of the
    product.
    """
    if psi.flavor != E_FLAVOR:
        raise ValueError("left action needs flavor E")
    grid = f.grid
    N = grid.nx_unit
    d = min(psi.depth, f.depth)
    qs = psi.p_support
    if not qs or f.nx == 0:
        return _no_rows(f, psi, depth=d)
    lo = f.i0 - qs[-1] * N
    acc = None
    for q in qs:
        vals = psi.eval_window(q, f.i0 - q * N, f.i1 - q * N, depth=d)
        term = jets.mul(np.conj(vals, out=vals), f.chain)
        if acc is None:
            acc = np.zeros((d + 1, f.nx + (qs[-1] - qs[0]) * N) + term.shape[2:],
                           complex)
        r0 = f.i0 - q * N - lo
        acc[:, r0:r0 + f.nx] += term
    return ScalarField(grid, lo, acc).trimmed()


def _derived(w: Union[str, Sequence[str]], phi: AlgebraElement, q: int,
             depth: int, rows) -> jets.Chain:
    """Chain of component q of delta_w(phi) to order `depth` at most, or
    for a sequence of directions their chains batched direction by
    direction, each derived only to the orders the batch keeps (delta_Y
    takes one).  delta_X, the one with a transform per row, is formed only
    on the fundamental-domain rows `rows` (an index array, or a slice for
    all) and is zero elsewhere; delta_Y and delta_Z, a shift and a scaling,
    cost less on every row than a gather and a scatter."""
    ws = [w] if isinstance(w, str) else w
    depth = min([depth] + [len(phi.comps[q]) - 1 - (v == "Y") for v in ws])
    if isinstance(w, str) and (w != "X" or isinstance(rows, slice)):
        return derive_component(w, phi, q, depth)
    out = np.zeros((depth + 1, phi.nxd, len(ws)) + phi.comps[q].shape[2:], complex)
    for k, v in enumerate(ws):
        at = rows if v == "X" else slice(None)
        out[:, at, k] = derive_component(v, phi, q, depth, at)
    return out[:, :, 0] if isinstance(w, str) else out.reshape(
        out.shape[:2] + (-1, out.shape[-1]))


def act_right(g: ModuleVector, phi: AlgebraElement,
              w: Union[None, str, Sequence[str]] = None) -> ModuleVector:
    """Right action of flavor D on a module vector: g . phi, or
    g . delta_w(phi) when a derivation direction w is given.

    Term q is one Leibniz product on g's own rows, moved by -q su, -q sv
    into a common buffer; phi's window is evaluated only to the depth of
    the product.  With w, each component of delta_w(phi) is formed inside
    the loop and windowed as a bare chain, so the derived element is never
    held whole; delta_X, row-local like every derivation, is formed only
    on the fundamental-domain rows the window reads (all of them once g
    spans a unit).  A sequence of directions gives one batch, direction by
    direction: along w[k], member i of a batch phi of n members is member
    k n + i of the result (k for an unbatched phi).
    """
    if phi.flavor != D_FLAVOR:
        raise ValueError("right action needs flavor D")
    grid = g.grid
    S = grid.su_steps
    V = grid.sv_steps
    qs = phi.p_support
    if not qs:
        return _no_rows(g, phi, w)
    N = grid.nx_unit
    # the fundamental-domain rows that the windows of g's rows read
    read = slice(None) if w is None or g.nx >= N else np.arange(g.i0, g.i1) % N
    lo = g.i0 - qs[-1] * S
    rows = g.nx + (qs[-1] - qs[0]) * S if g.nx else 0
    acc = None
    depths = []
    for q in qs:
        if w is None:
            chain, depth = phi.comps[q], phi.depth
        else:
            chain = _derived(w, phi, q, g.depth, read)
            if not chain.any():  # a component that delta_w annihilates
                continue
            depth = len(chain) - 1
        depths.append(depth)
        vals = window(chain, D_FLAVOR, grid, q, g.i0, g.i1, min(depth, g.depth))
        del chain  # a derived batch, freed before the next one is formed
        term = jets.mul(g.chain, np.conj(vals, out=vals))
        if acc is None:
            acc = np.zeros((g.depth + 1, rows) + term.shape[2:], complex)
        r0 = g.i0 - q * S - lo
        acc[:len(term), r0:r0 + g.nx] += term[..., grid.y_roll(-q * V)]
    if acc is None:  # delta_w annihilates every component
        return _no_rows(g, phi, w)
    depth = min(depths + [g.depth])
    return ScalarField(grid, lo, acc[:depth + 1]).trimmed()


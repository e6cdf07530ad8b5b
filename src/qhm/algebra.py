"""The two crossed-product flavors and their calculus.

Elements are finitely p-supported maps p -> field.  Invariant elements are
(phase-)periodic in x, so each p-component is stored on a fundamental
domain: x in [0,1) for flavor D, x in [0,su) for flavor E.  Evaluation at
arbitrary grid points wraps through the invariance action exactly, which
keeps every translation in the star products an exact index map.

Each component is one (depth + 1, nxd, ny) x-derivative chain, as in
ScalarField (see jets), so the derivations are exact on elements built from
closed forms.  A batch of elements (AlgebraElement.stack) carries one more
axis before y, (depth + 1, nxd, B, ny); star and the bimodule kernels take
it as it is, and AlgebraElement.members splits it again.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import jets
from .jets import Chain
from .lattice import Grid, chain_dx, spectral_dy

D_FLAVOR = "D"
E_FLAVOR = "E"


def bracket(w1: str, w2: str):
    """Heisenberg bracket table: [X,Y] = c*Z, all other pairs commute.

    Returns (sign, label) with label None for a vanishing bracket; the
    structure constant c itself is supplied by the caller's params.
    """
    if (w1, w2) == ("X", "Y"):
        return 1, "Z"
    if (w1, w2) == ("Y", "X"):
        return -1, "Z"
    return 0, None


class FlavorError(ValueError):
    pass


class AlgebraElement:
    """Finitely p-supported element of the D- or E-flavored algebra.

    Components are never written after construction: every operation
    builds its result's chains anew.
    """

    __slots__ = ("flavor", "grid", "comps")

    def __init__(self, flavor: str, grid: Grid, comps: Dict[int, Chain]):
        if flavor not in (D_FLAVOR, E_FLAVOR):
            raise FlavorError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.grid = grid
        nxd = self.domain_steps(flavor, grid)
        clean: Dict[int, Chain] = {}
        for p, chain in comps.items():
            chain = np.asarray(chain, complex)
            if (chain.ndim not in (3, 4) or chain.shape[1] != nxd
                    or chain.shape[-1] != grid.ny):
                raise ValueError(f"component shape {chain.shape} != "
                                 f"(depth + 1, {nxd}[, batch], {grid.ny})")
            if chain.any():
                clean[int(p)] = chain
        self.comps = clean

    # -- structure -------------------------------------------------------

    @staticmethod
    def domain_steps(flavor: str, grid: Grid) -> int:
        return grid.nx_unit if flavor == D_FLAVOR else grid.su_steps

    @property
    def nxd(self) -> int:
        return self.domain_steps(self.flavor, self.grid)

    @property
    def p_support(self):
        return sorted(self.comps)

    @property
    def depth(self) -> int:
        if not self.comps:
            return 0
        return min(len(c) for c in self.comps.values()) - 1

    def component(self, p: int, depth: Optional[int] = None) -> Chain:
        d = self.depth if depth is None else depth
        chain = self.comps.get(p)
        if chain is None:
            return np.zeros((d + 1, self.nxd, self.grid.ny), complex)
        return chain[: d + 1]

    def upto(self, depth: int) -> "AlgebraElement":
        """This element with its chain orders above `depth` dropped (views;
        a cut never deepens a chain)."""
        return AlgebraElement(self.flavor, self.grid,
                              {p: c[:depth + 1] for p, c in self.comps.items()})

    def members(self, count: int) -> List["AlgebraElement"]:
        """The `count` elements of a batch (stack's inverse); a batch that
        has no components is `count` zeros."""
        return [AlgebraElement(self.flavor, self.grid,
                               {p: c[:, :, i] for p, c in self.comps.items()})
                for i in range(count)]

    def norm_inf(self) -> float:
        """Sup-norm of the values, order 0 of each component's chain."""
        # np.max keeps a NaN, which max() drops behind a number
        return float(np.max([np.max(np.abs(c[0])) for c in self.comps.values()], initial=0))

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, flavor: str, grid: Grid) -> "AlgebraElement":
        return cls(flavor, grid, {})

    @classmethod
    def identity(cls, flavor: str, grid: Grid, depth: int) -> "AlgebraElement":
        chain = np.zeros((depth + 1, cls.domain_steps(flavor, grid), grid.ny), complex)
        chain[0] = 1
        return cls(flavor, grid, {0: chain})

    @classmethod
    def stack(cls, elems: Sequence["AlgebraElement"]) -> "AlgebraElement":
        """One batch of elements of one flavor and grid: each component
        stacks the members' chains on axis 2, zero where a member lacks the
        component, cut to the shortest depth among the members that have
        components (a zero element truncates nothing, as in _combine)."""
        first = elems[0]
        for e in elems[1:]:
            first._check(e)
        d = min((e.depth for e in elems if e.comps), default=0)
        ps = sorted(set().union(*(e.comps for e in elems)))
        return cls(first.flavor, first.grid,
                   {p: np.stack([e.component(p, d) for e in elems], axis=2)
                    for p in ps})

    # -- linear structure ------------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if self.flavor != other.flavor:
            raise FlavorError(f"flavor mismatch {self.flavor} vs {other.flavor}")
        if self.grid != other.grid:
            raise ValueError("grid mismatch")

    def _combine(self, other: "AlgebraElement", op) -> "AlgebraElement":
        """Componentwise op, to the shorter depth of the operands that have
        components: a zero element carries no chain and truncates nothing."""
        self._check(other)
        d = min((e.depth for e in (self, other) if e.comps), default=0)
        comps = {}
        for p in set(self.comps) | set(other.comps):
            comps[p] = op(self.component(p, d), other.component(p, d))
        return AlgebraElement(self.flavor, self.grid, comps)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._combine(other, operator.add)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._combine(other, operator.sub)

    def scaled(self, z: complex) -> "AlgebraElement":
        return AlgebraElement(self.flavor, self.grid,
                              {p: z * c for p, c in self.comps.items()})

    # -- twisted-periodic evaluation -------------------------------------

    def eval_window(self, p: int, i_lo: int, i_hi: int,
                    dxs: int = 0, dys: int = 0, depth: Optional[int] = None) -> Chain:
        """Chain W with W[n, i, j] = comp_p^(n)(x_{i_lo+i} + dxs*hx, y_j + dys*hy)."""
        d = self.depth if depth is None else depth
        return window(self.comps.get(p), self.flavor, self.grid, p,
                      i_lo, i_hi, d, dxs, dys)


def window(chain: Optional[Chain], flavor: str, grid: Grid, p: int,
           i_lo: int, i_hi: int, depth: int, dxs: int = 0, dys: int = 0) -> Chain:
    """AlgebraElement.eval_window of a component p whose chain is given
    bare (None for an absent component, whose window is zero): the rows
    of Grid.twisted_rows in the wrap of the flavor, then moved by dys in y.
    D: Phi(x+k, y, p) = e(c k p (y - p sv/2)) Phi(x, y, p), twist(k, p);
    E: Psi(x + m su, y, p) = e(c p m (y - m sv/2)) Psi(x, y - m sv, p),
    twist(p, m); a unit phase is not multiplied (twist_or_none, see bimodule).
    """
    if chain is None:
        return np.zeros((depth + 1, i_hi - i_lo, grid.ny), complex)
    if depth >= len(chain):
        raise ValueError(f"derivative chain exhausted: a window of depth {depth} "
                         f"needs a chain deeper than the component carries "
                         f"({len(chain) - 1})")
    if flavor == D_FLAVOR:
        cell, shift, phase = grid.nx_unit, 0, lambda k: grid.twist_or_none(k, p)
    else:
        cell, shift, phase = (grid.su_steps, grid.sv_steps,
                              lambda k: grid.twist_or_none(p, k))
    out = grid.twisted_rows(chain[:depth + 1], i_lo + dxs, i_hi + dxs, cell, shift, phase)
    return grid.y_shifted(out, -dys)


# -- operations ----------------------------------------------------------


def star(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Twisted convolution over the p-index.

    D: (A*B)(x,y,p) = sum_q A(x,y,q) B(x - q su, y - q sv, p - q)
    E: (A*B)(x,y,p) = sum_q A(x,y,q) B(x + q, y, p - q)

    Each (q, r) pair is one Leibniz product of component q of a with the
    translated component r of b over the whole fundamental domain.

    Either operand may be a batch (AlgebraElement.stack), the other then
    gaining a singleton batch axis: member i is the product of members i bit
    for bit, as a component that a member lacks is zero in the batch and
    its terms add +-0 onto accumulators that start at +0.
    """
    a._check(b)
    g = a.grid
    N = a.nxd
    d = min(a.depth, b.depth)
    comps: Dict[int, Chain] = {}
    for q in a.p_support:
        aq = a.comps[q][:d + 1]
        if a.flavor == D_FLAVOR:
            dxs, dys = -q * g.su_steps, -q * g.sv_steps
        else:
            dxs, dys = q * g.nx_unit, 0
        for r in b.p_support:
            term = jets.mul(aq, b.eval_window(r, 0, N, dxs, dys, d))
            acc = comps.get(q + r)
            if acc is None:
                acc = comps[q + r] = np.zeros(term.shape, complex)
            acc += term
    return AlgebraElement(a.flavor, g, comps)


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """D: A*(x,y,p) = conj A(x - p su, y - p sv, -p);
    E: A*(x,y,p) = conj A(x + p, y, -p)."""
    g = a.grid
    comps: Dict[int, Chain] = {}
    for q in a.p_support:
        p = -q
        if a.flavor == D_FLAVOR:
            w = a.eval_window(q, 0, a.nxd, dxs=-p * g.su_steps, dys=-p * g.sv_steps)
        else:
            w = a.eval_window(q, 0, a.nxd, dxs=p * g.nx_unit, dys=0)
        comps[p] = np.conj(w)
    return AlgebraElement(a.flavor, g, comps)


def derive_component(w: str, a: AlgebraElement, p: int,
                     depth: Optional[int] = None, rows=slice(None)) -> Chain:
    """Chain of component p of derivation(w, a), to order `depth` if given
    (and the chain reaches it), on the domain rows `rows` (slice or indices).
    Order n of a derivation reads no order of the component above n (n + 1
    for delta_Y), and each row only itself, so both cuts are exact."""
    g = a.grid
    c = g.params.c
    chain = a.comps[p]
    if depth is not None:
        chain = chain[:depth + 1 + (w == "Y")]
    chain = chain[:, rows]
    if w == "Z":
        return 2j * math.pi * p * c * chain
    if w == "Y":
        return -chain_dx(chain)
    if w != "X":
        raise ValueError(f"unknown Lie label {w!r}")
    # the x-factor and the order factors broadcast over a batch axis too
    ones = (1,) * (chain.ndim - 2)
    xs = (np.arange(g.nx_unit)[rows] * g.hx_f - p * float(g.params.su) / 2).reshape((-1,) + ones)
    z = 2j * math.pi * c * p
    out = z * xs * chain
    out -= spectral_dy(chain, g)
    out[1:] += np.arange(1, len(chain)).reshape((-1, 1) + ones) * z * chain[:-1]
    return out


def derivation(w: str, a: AlgebraElement) -> AlgebraElement:
    """Infinitesimal Heisenberg actions on flavor D, componentwise in p:

    delta_X Phi = 2 pi i c p (x - p su/2) Phi - dPhi/dy
    delta_Y Phi = -dPhi/dx
    delta_Z Phi = 2 pi i p c Phi
    """
    if a.flavor != D_FLAVOR:
        raise FlavorError("derivations are defined on flavor D")
    return AlgebraElement(D_FLAVOR, a.grid,
                          {p: derive_component(w, a, p) for p in a.comps})


def trace(a: AlgebraElement) -> complex:
    """Integral of the p=0 component over the fundamental domain x T:
    [0,1) for flavor D, where tau(Id) = 1, and [0,su) for flavor E."""
    comp0 = a.component(0, 0)[0]
    return complex(np.sum(comp0)) * a.grid.hx_f * a.grid.hy_f


def residual_norm(a: AlgebraElement, *subs: AlgebraElement) -> float:
    """(a - subs[0] - subs[1] - ...).norm_inf() without the difference
    elements: order 0 of each component, differenced in the same order
    (an absent component reads zero), so the norm is the same bit for bit."""
    for s in subs:
        a._check(s)
    worst = []
    for p in set(a.comps).union(*(s.comps for s in subs)):
        r = a.comps[p][0] if p in a.comps else 0
        for s in subs:
            if p in s.comps:
                r = r - s.comps[p][0]
        worst.append(np.max(np.abs(r)))
    # np.max keeps a NaN, which max() drops behind a number
    return float(np.max(worst, initial=0))

"""Connections, curvature, and the multiplication-operator commutators.

The Grassmannian connection is nabla0_W(f) = R . delta_W(<R,f>_D), along
every W at once act_right(R, <R,f>_D, "XYZ"); adding a multiplication-type
skew perturbation G gives the full family considered here.  With
Q = <R,R>_D, dQ_i = delta_Wi Q and v_i = nabla0_Wi R = R . dQ_i, its
curvature Theta0(W1,W2) = <R . (dQ_1 dQ_2 - dQ_2 dQ_1), R>_E is
<v_1, v_2>_E - <v_2, v_1>_E (Connes-Rieffel), term by term:

  <R . (dQ_1 dQ_2), R>_E = <(R . dQ_1) . dQ_2, R>_E   R . (a b) = (R . a) . b
                         = <R . dQ_1, R . dQ_2*>_E    <f . a, g>_E = <f, g . a*>_E
                         = <v_1, v_2>_E               dQ_i* = dQ_i
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .algebra import AlgebraElement, E_FLAVOR
from .bimodule import act_right, inner_D, inner_E
from .lattice import ScalarField, TorusFunction

SKEW_TOL = 1e-12


class StructureError(ValueError):
    """A computed object violates a structural property it should have."""


def check_skew(g: TorusFunction, name: str, tol: float = SKEW_TOL):
    scale = max(g.norm_inf(), 1.0)
    worst = float(np.max(np.abs(g.samples.real)))
    if worst > tol * scale:
        raise StructureError(f"{name} is not skew-symmetric (real part {worst:.2e})")


@dataclass(frozen=True)
class Perturbation:
    """Multiplication-type direction (G1, G2, G3) = (mu_X, mu_Y, mu_Z)."""

    g1: TorusFunction
    g2: TorusFunction
    g3: TorusFunction

    def __post_init__(self):
        for name, g in self.items():
            check_skew(g, name)

    def items(self):
        return (("G1", self.g1), ("G2", self.g2), ("G3", self.g3))

    def component(self, w: str) -> TorusFunction:
        return {"X": self.g1, "Y": self.g2, "Z": self.g3}[w]


@dataclass(frozen=True)
class Connection:
    R: ScalarField
    perturbation: Optional[Perturbation] = None


def mult_element(g: TorusFunction, depth: int) -> AlgebraElement:
    """Multiplication-type E-element G delta_0 of a skew-torus function,
    with G's spectral x-derivative chain to `depth`."""
    return AlgebraElement(E_FLAVOR, g.grid, {0: g.derivative_chain(depth)})


@dataclass(frozen=True)
class Curvature2Form:
    """The three independent components of an alternating E-valued 2-form."""

    xy: AlgebraElement
    xz: AlgebraElement
    yz: AlgebraElement
    _profiles: list = field(default_factory=list, init=False, repr=False,
                            compare=False)  # extract_f1_f2's (f1, f2)

    def component(self, w1: str, w2: str) -> AlgebraElement:
        """Theta(W1, W2) for W1 before W2 in (X, Y, Z)."""
        return {("X", "Y"): self.xy, ("X", "Z"): self.xz, ("Y", "Z"): self.yz}[(w1, w2)]

    def norm_inf(self) -> float:
        return float(np.max([t.norm_inf() for t in (self.xy, self.xz, self.yz)]))


def curvature_closed(R: ScalarField) -> Curvature2Form:
    """Grassmannian curvature from the three v_W = R . delta_W <R,R>_D, one
    batch of one act_right, paired in one six-member inner_E of
    (vX, vX, vY | vY, vZ, vZ) against (vY, vZ, vZ | vX, vX, vY): XY, XZ, YZ
    are the first three members minus the last three.  The batch is cut to
    its shortest chain, delta_Y Q's, one order below R's.
    """
    v = act_right(R, inner_D(R, R), ("X", "Y", "Z"))
    pairs = inner_E(ScalarField(R.grid, v.i0, v.chain[:, :, [0, 0, 1, 1, 2, 2]]),
                    ScalarField(R.grid, v.i0, v.chain[:, :, [1, 2, 2, 0, 0, 1]]))
    return Curvature2Form(*AlgebraElement(E_FLAVOR, R.grid, {
        p: c[:, :, :3] - c[:, :, 3:] for p, c in pairs.comps.items()}).members(3))


def curvature_perturbed(theta0: Curvature2Form, pert: Perturbation,
                        c: int, depth: int) -> Curvature2Form:
    """Assemble the curvature of nabla0 + G from the Grassmannian one, with
    the multiplication elements' chains to `depth`, the order its reader
    takes: 0 for YM, 1 for the criticality residuals.

    The multiplication-operator commutators contribute, as E-elements,
    [nabla0_X, G] = (-dG/dy) delta_0,  [nabla0_Y, G] = (-dG/dx) delta_0,
    [nabla0_Z, G] = 0, and mult-type elements commute among themselves, so

      Theta(X,Y) = (f1 + dx G1 - dy G2 - c G3) delta_0
      Theta(X,Z) = Theta0(X,Z) + (-dy G3) delta_0
      Theta(Y,Z) = (f2 - dx G3) delta_0.

    The XY and YZ components are rebuilt as single multiplication elements
    from the profile functions, so the whole 2-form lives in the discrete
    spectral calculus with self-consistent derivative chains (the analytic
    chains of the closed-form element would disagree with the spectral ones
    by the aliasing error of the barely-resolved bump profiles, polluting
    operator commutators against them).  Theta0(X,Z) vanishes to machine
    precision, so it is kept additively.
    """
    g1, g2, g3 = pert.g1, pert.g2, pert.g3
    f1, f2 = extract_f1_f2(theta0)
    xy = mult_element(f1 + g1.d_dx() - g2.d_dy() - float(c) * g3, depth)
    xz = theta0.xz + mult_element(-g3.d_dy(), depth)
    yz = mult_element(f2 - g3.d_dx(), depth)
    return Curvature2Form(xy, xz, yz)


def extract_f1_f2(theta: Curvature2Form) -> Tuple[TorusFunction, TorusFunction]:
    """One-variable profiles of the two nonzero Grassmannian components.

    Asserts the structure the closed-form computation must produce:
    p-support {0}, no y-dependence, purely imaginary values; su-periodicity
    is automatic in the fundamental-domain representation.  Computed once
    per form and kept on it, so every caller gets the same f1 and f2.
    """
    if theta._profiles:
        return theta._profiles[0], theta._profiles[1]
    out = []
    for name, comp in (("XY", theta.xy), ("YZ", theta.yz)):
        bad = [p for p in comp.p_support if p != 0]
        if bad:
            raise StructureError(f"Theta0({name}) has p-support {bad} beyond {{0}}")
        samples = comp.component(0, 0)[0]
        scale = max(float(np.max(np.abs(samples))), 1e-30)
        prof = samples.mean(axis=1)
        ydev = float(np.max(np.abs(samples - prof[:, None])))
        if ydev > 1e-9 * scale:
            raise StructureError(f"Theta0({name}) depends on y ({ydev:.2e})")
        realdev = float(np.max(np.abs(prof.real)))
        if realdev > 1e-9 * scale:
            raise StructureError(f"Theta0({name}) is not purely imaginary "
                                 f"({realdev:.2e})")
        grid = comp.grid
        out.append(TorusFunction(grid, np.repeat(prof[:, None], grid.ny, axis=1)))
    theta._profiles.extend(out)
    return out[0], out[1]


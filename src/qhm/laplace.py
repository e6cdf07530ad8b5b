"""Spectral construction of the critical perturbation.

Pipeline: f1, f2 from the Grassmannian curvature -> Poisson solve for G3 on
the skew torus -> x-antiderivative for G1 (gauge G2 = 0).  The Poisson
right side dx f2 + c*a0 has torus mean c*a0, which obstructs solvability
whenever a0 = mean(f1) is nonzero; we solve the mean-zero projection and
record the discarded constant.

What no x-derivative reaches goes into G3: f1's part K on the kernel of
the discrete d/dx (TorusFunction.dx_kernel), its mean a0 and, on an even
x-axis, its x-Nyquist row.  G3 + K/c cancels K in Theta(X,Y), no derivative
sees K, and the connection is exactly critical on every resolved grid.

Closed-form limit of the Yang-Mills value.  After the solve the perturbed
curvature is constant: Theta(X,Y) = f1 + dx G1 - c G3 = 0 once G3 holds
K, Theta(X,Z) = Theta0(X,Z) - dy G3 = 0 since G3 is y-independent, and
dx G3 = f2 - <f2>, so Theta(Y,Z) = <f2> delta_0.  With tau_E integrating
over [0, su) x T,

    YM = -tau_E(Theta(Y,Z)^2) = su |<f2>|^2.

The trace of Theta0(Y,Z) is of Chern type, su <f2> -> 2 pi i c, hence

    YM -> YM_inf = 4 pi^2 c^2 / su,

and a0 -> -i pi c / 4.  The error decays superalgebraically in the number
of samples across su: 7.5e-3 at refinement 27 (su = 1/4), 7.4e-8 at 135
and 4.6e-14 at 405, independent of c and sv.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

import numpy as np

from .calculus import (Connection, Perturbation, curvature_closed,
                       curvature_perturbed, extract_f1_f2)
from .lattice import ScalarField, TorusFunction
from .yangmills import critical_residuals, ym_of_curvature


@dataclass(frozen=True)
class PoissonRHS:
    w: TorusFunction          # mean-zero right side actually solved
    a0: complex               # mean of f1
    discarded_mean: complex   # zero mode removed for solvability (= c*a0)


def assemble_rhs(f1: TorusFunction, f2: TorusFunction, c: int) -> PoissonRHS:
    """w = dx f2 + c*a0 with the zero mode split off; a0 = mean of f1."""
    a0 = f1.mean()
    w_full = f2.d_dx() + c * a0
    m = w_full.mean()
    return PoissonRHS(w=w_full - m, a0=a0, discarded_mean=m)


# Largest Poisson residual, relative to the right side, that G3 may leave.
POISSON_TOL = 1e-9


def solve_poisson(rhs: PoissonRHS) -> TorusFunction:
    """G3 with (d2/dx2 + d2/dy2) G3 = w, zero-mean gauge."""
    w = rhs.w
    grid = w.grid
    co = w.fft()
    scale = max(float(np.max(np.abs(co))), 1e-300)
    if abs(co[0, 0]) > 1e-12 * scale:
        raise ValueError(f"Poisson right side has nonzero mean ({co[0, 0]:.2e})")
    lam = grid.laplace_multiplier
    out = np.zeros_like(co)
    mask = np.abs(lam) > 1e-12
    np.divide(co, lam, out=out, where=mask)
    out[0, 0] = 0.0
    g3 = TorusFunction.from_fft(grid, out)
    resid = (g3.d_dx().d_dx() + g3.d_dy().d_dy() - w).norm_inf()
    wscale = max(w.norm_inf(), 1e-300)
    if resid > POISSON_TOL * wscale:
        raise ValueError(f"Poisson residual {resid:.2e} above {POISSON_TOL:.0e} relative")
    return g3


def build_perturbation(f1: TorusFunction, g3: TorusFunction, c: int) -> Perturbation:
    """G1 = x-antiderivative of (c*G3 - (f1 - K)), G3 + K/c, gauge G2 = 0,
    with K f1's part on dx_kernel.  The mean a0 is read off the samples and
    divided by c as a Python scalar, and only the other kernel modes, zero on
    odd grids, are projected by FFT, so odd grids get G3 + a0/c bit for bit."""
    a0 = f1.mean()
    rest = np.where(f1.dx_kernel(), f1.fft(), 0.0)  # the kept fft is read-only
    rest[0, 0] = 0.0
    k = TorusFunction.from_fft(f1.grid, rest) + a0 if np.any(rest) else a0
    g1 = (float(c) * g3 - (f1 - k)).antiderivative_x()
    return Perturbation(g1, TorusFunction.zeros(f1.grid), g3 + k / c)


def verify_critical(R: ScalarField) -> Dict[str, object]:
    """Run the full construction and measure criticality of it and of the
    Grassmannian connection, both against one theta0."""
    c = R.grid.params.c
    theta0 = curvature_closed(R)
    f1, f2 = extract_f1_f2(theta0)
    rhs = assemble_rhs(f1, f2, c)
    pert = build_perturbation(f1, solve_poisson(rhs), c)
    nabla = Connection(R, pert)
    nabla0 = Connection(R)
    theta = curvature_perturbed(theta0, pert, c, 1)  # the residuals read order 1
    res, res0 = critical_residuals([nabla, nabla0], theta0, [theta, theta0])
    return {
        "a0": rhs.a0,
        "discarded_mean": rhs.discarded_mean,
        "residuals": asdict(res),
        "residuals_grassmannian": asdict(res0),
        "ym": ym_of_curvature(theta),
        "ym_grassmannian": ym_of_curvature(theta0),
        "perturbation": pert,
        "f1": f1,
        "f2": f2,
        "theta0": theta0,
    }


def laplace_form_residuals(f1: TorusFunction, f2: TorusFunction,
                        pert: Perturbation, c: int) -> Dict[str, float]:
    """Consistency of the construction with the Laplace-form equations.

    theta_xy:       f1 + dx G1 - dy G2 - c G3, the constant component of
                    Theta(X,Y); zero once G3 holds f1's d/dx-kernel part
    second_eq_osc:  oscillatory part of (dyy + dxx) G3 - (dx f2 + c a0); the
                    constant part is the discarded zero mode c a0

    dx f2 and the first derivatives of G are the ones that assemble_rhs and
    the perturbed curvature took and kept; only G3's second ones are new.
    """
    a0 = f1.mean()
    curl = pert.g1.d_dx() - pert.g2.d_dy()
    theta_xy = f1 + curl - float(c) * pert.g3
    eq_b = (pert.g3.d_dy().d_dy() + pert.g3.d_dx().d_dx()
            - (f2.d_dx() + c * a0))
    return {
        "theta_xy": theta_xy.norm_inf(),
        "second_eq_osc": (eq_b - eq_b.mean()).norm_inf(),
    }

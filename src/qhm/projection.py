"""Construction of the partition-of-unity bump R and the projection Q.

R is a real one-variable C-infinity function: zero up to -su/2, a flat-ended
ramp on (-su/2, -su/4), one on [-su/4, su/2], and sqrt-complementary descent
on (su/2, 3su/4) so that R^2(x) + R^2(x - su) = 1 holds identically on
[0, su].  The ramp is h(t) = phi(t) / (phi(t) + phi(1-t)) with
phi(t) = exp(-1/t); all derivatives vanish at the gluing points, so sqrt
keeps smoothness and the derivative chain is exact everywhere.  The bump
has no settings: its chain runs to lattice.CHAIN_DEPTH, and the ramp's
tails are clipped at the constant T_MIN.

Q = <R,R>_D is then an exact projection on the grid, and verify_R_conditions
evaluates every idempotence/unit condition list pointwise.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from . import jets
from .algebra import AlgebraElement, D_FLAVOR
from .lattice import CHAIN_DEPTH, Grid, Params, ScalarField

# Clip of the ramp's doubly-exponential tails: where t or 1 - t is at most
# T_MIN the profile (and its whole derivative chain) is below 1e-20, so
# clamping to the flat value keeps every pointwise identity at machine
# precision, and on the unclipped part |s| < 500, so e^(+-s) stays finite.
T_MIN = 0.005


def ramp_chain(t: np.ndarray, rising: bool) -> jets.Chain:
    """Chain in t, to CHAIN_DEPTH, of the rising ramp sqrt(h) or the
    falling sqrt(1 - h).

    With s = 1/t - 1/(1-t), h = 1/(1 + e^s); the ramps are evaluated as
    (1 + e^s)^(-1/2) and (1 + e^-s)^(-1/2), so 1 - h never cancels.  Where
    t or 1 - t is at most T_MIN the chain takes the flat values.
    """
    out = np.zeros((CHAIN_DEPTH + 1,) + np.shape(t))
    out[0, (t >= 1 - T_MIN) if rising else (t <= T_MIN)] = 1.0
    mid = (t > T_MIN) & (t < 1 - T_MIN)
    tm = t[mid]
    sign = 1.0 if rising else -1.0
    # d^n/dt^n (1/t - 1/(1-t)), in closed form
    s = np.empty((CHAIN_DEPTH + 1,) + tm.shape)
    for n in range(CHAIN_DEPTH + 1):
        s[n] = (sign * math.factorial(n)
                * ((-1) ** n / tm ** (n + 1) - 1 / (1 - tm) ** (n + 1)))
    e = jets.exp(s)
    e[0] += 1
    out[:, mid] = jets.power(e, -0.5)
    return out


def bump_chain(x: np.ndarray, start: float, width: float, top: float) -> jets.Chain:
    """Chain in x of the C-infinity bump that rises on (start, start + width),
    is one on [start + width, top] and falls on (top, top + width)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((CHAIN_DEPTH + 1,) + x.shape)
    out[0, (x >= start + width) & (x <= top)] = 1.0
    scale = width ** np.arange(CHAIN_DEPTH + 1)[:, None]
    for lo, rising in ((start, True), (top, False)):
        sel = (x > lo) & (x < lo + width)
        out[:, sel] = ramp_chain((x[sel] - lo) / width, rising) / scale
    return out


def build_R(params: Params, grid: Grid) -> ScalarField:
    """The bump vector with its analytic derivative chain to CHAIN_DEPTH."""
    su = float(params.su)
    i_lo = -grid.su_steps  # support is inside (-su, su)
    i_hi = grid.su_steps + 1
    return ScalarField.from_function(
        grid, i_lo, i_hi, lambda x: bump_chain(x, -su / 2, su / 4, su / 2))


def extract_h_g(Q: AlgebraElement) -> Tuple[ScalarField, ScalarField]:
    """Split Q = g*delta_1 + h*delta_0 + conj-shifted-g*delta_{-1}."""
    if Q.flavor != D_FLAVOR:
        raise ValueError("expected a D-element")
    bad = [p for p in Q.p_support if abs(p) > 1]
    if bad:
        raise ValueError(f"projection has p-support beyond +-1: {bad}")
    g = Q.grid
    d = Q.depth
    h_f = ScalarField(g, 0, Q.component(0, d))
    g_f = ScalarField(g, 0, Q.component(1, d))
    mirror = Q.eval_window(1, 0, g.nx_unit, dxs=g.su_steps, dys=g.sv_steps, depth=0)
    resid = float(np.max(np.abs(np.conj(mirror[0]) - Q.component(-1, 0)[0])))
    scale = max(g_f.norm_inf(), 1.0)
    if resid > 1e-12 * scale:
        raise ValueError(f"delta_-1 component is not the conjugate mirror ({resid:.2e})")
    return h_f, g_f


def _profile(R: ScalarField, i_lo: int, i_hi: int, shift: int = 0) -> np.ndarray:
    """One-variable x-profile samples of R on [i_lo, i_hi) shifted by steps."""
    return R.window(i_lo + shift, i_hi + shift)[0, :, 0]


def verify_R_conditions(R: ScalarField, Q: AlgebraElement) -> Dict[str, float]:
    """Max pointwise violation of each defining condition list.

    Keys (b-*) use the assembled h, g of the projection Q = <R, R>_D (to
    order 0 at least) with twisted-periodic extension; (B-*)/(C-*)/(d-*)
    are evaluated directly from R.  (B-2) is checked on [0, su] and (B-3)
    on the support of g, where the identities they restate apply.
    """
    g = R.grid
    N, S, V = g.nx_unit, g.su_steps, g.sv_steps
    out: Dict[str, float] = {}
    # the conditions read values, and order 0 of a product needs only order 0
    R = R.upto(0)

    h_f, g_f = extract_h_g(Q)
    h0 = h_f.window(0, N)[0]
    g0 = g_f.window(0, N)[0]
    g_m = Q.eval_window(1, 0, N, dxs=-S, dys=-V, depth=0)[0]
    h_m = Q.eval_window(0, 0, N, dxs=-S, dys=-V, depth=0)[0]
    g_p = Q.eval_window(1, 0, N, dxs=S, dys=V, depth=0)[0]
    out["b-1"] = float(np.max(np.abs(g0 * g_m)))
    out["b-2"] = float(np.max(np.abs(g0 * (1 - h0 - h_m))))
    out["b-3"] = float(np.max(np.abs(np.abs(g0) ** 2 + np.abs(g_p) ** 2
                                     - (h0 - h0 ** 2))))

    lo, hi = -2 * S, 2 * S + 1
    r = _profile(R, lo, hi)
    r_mS = _profile(R, lo, hi, -S)
    r_pS = _profile(R, lo, hi, S)
    out["B-1"] = float(np.max(np.abs(r ** 2 * r_mS * r_pS)))
    b2 = _profile(R, 0, S + 1)
    b2m = _profile(R, 0, S + 1, -S)
    out["B-2"] = float(np.max(np.abs(b2 ** 2 + b2m ** 2 - 1)))
    gsupp = np.abs(r * r_mS) > 0
    if np.any(gsupp):
        b3 = np.abs(r_mS ** 2 + r_pS ** 2 + r ** 2 - 1)[gsupp]
        out["B-3"] = float(np.max(b3))
    else:
        out["B-3"] = 0.0
    # np.max and np.maximum keep a NaN, which max() drops behind a number
    out["C-1"] = float(np.max([np.max(np.abs(r * _profile(R, lo, hi, -l * S)))
                               for l in (-3, -2, 2, 3)]))
    kmax = (hi - lo) // S + 2
    acc = np.zeros(S, dtype=float)
    for k in range(-kmax, kmax + 1):
        acc += np.abs(_profile(R, 0, S, -k * S)) ** 2
    out["C-2"] = float(np.max(np.abs(acc - 1)))
    out["C-3"] = float(np.max([np.max(np.abs(r * _profile(R, lo, hi, j * N)))
                               for j in (-2, -1, 1, 2)]))
    out["d-1"] = out["C-2"]
    d2 = 0.0
    for p in (1, 2):
        acc2 = np.zeros((S, g.ny), dtype=complex)
        for k in range(-kmax, kmax + 1):
            ph = g.twist(p, k)
            prod = (_profile(R, 0, S, -k * S)
                    * _profile(R, 0, S, -k * S + p * N))
            acc2 += prod[:, None] * ph[None, :]
        d2 = np.maximum(d2, np.max(np.abs(acc2)))
    out["d-2"] = float(d2)
    return out


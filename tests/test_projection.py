"""Bump vector R, projection Q and their defining condition lists."""

import numpy as np
import pytest

from qhm import projection
from qhm.algebra import AlgebraElement, adjoint, star, trace
from qhm.bimodule import inner_D, inner_E
from qhm.lattice import CHAIN_DEPTH
from qhm.projection import (T_MIN, build_R, extract_h_g, ramp_chain,
                            verify_R_conditions)


@pytest.fixture(scope="module")
def Q2(R2):
    return inner_D(R2, R2)


def test_q_is_idempotent(Q2):
    assert (star(Q2, Q2) - Q2).norm_inf() < 1e-12


def test_q_is_selfadjoint(Q2):
    assert (adjoint(Q2) - Q2).norm_inf() < 1e-12


def test_frame_identity(grid2, R2):
    ee = inner_E(R2, R2)
    ident = AlgebraElement.identity(ee.flavor, grid2, depth=0)
    assert (ee - ident).norm_inf() < 1e-12


def test_trace_of_q(params, Q2):
    # the trace of the projection equals su = 2 hbar mu
    assert abs(trace(Q2) - float(params.su)) < 1e-10


def test_trace_of_q_other_parameters(params):
    from fractions import Fraction
    from qhm.lattice import Params, make_grid
    p = Params.from_steps(1, Fraction(1, 3), Fraction(1, 6))
    grid = make_grid(p, 3)
    R = build_R(p, grid)
    assert abs(trace(inner_D(R, R)) - float(p.su)) < 1e-10


def test_condition_lists(R2):
    for name, dev in verify_R_conditions(R2, inner_D(R2, R2)).items():
        assert dev <= 1e-12, f"condition {name}: {dev:.2e}"


def test_condition_lists_finer_grid(R4):
    for name, dev in verify_R_conditions(R4, inner_D(R4, R4)).items():
        assert dev <= 1e-12, f"condition {name}: {dev:.2e}"


@pytest.mark.parametrize("name, shift", [("C-1", lambda S, N: 2 * S),
                                         ("C-3", lambda S, N: -N)],
                         ids=["C-1", "C-3"])
def test_conditions_keep_a_nan_behind_a_number(R2, monkeypatch, name, shift):
    # a NaN in the second term of the fold (l = -2 of C-1, j = -1 of C-3):
    # max() kept the 0.0 before it and read 0.0
    S, N = R2.grid.su_steps, R2.grid.nx_unit
    profile = projection._profile
    poisoned = (-2 * S, 2 * S + 1, shift(S, N))

    def nan_profile(R, i_lo, i_hi, shift=0):
        out = profile(R, i_lo, i_hi, shift)
        return out * np.nan if (i_lo, i_hi, shift) == poisoned else out

    monkeypatch.setattr(projection, "_profile", nan_profile)
    devs = verify_R_conditions(R2, inner_D(R2, R2))
    assert np.isnan(devs[name])
    assert not any(np.isnan(v) for k, v in devs.items() if k != name)


def test_h_g_split_structure(grid2, Q2):
    h, g = extract_h_g(Q2)
    # h is the diagonal part: real, in [0,1]
    assert np.max(np.abs(h.data.imag)) < 1e-12
    assert np.min(h.data.real) > -1e-12
    assert np.max(h.data.real) < 1 + 1e-12


def test_r_is_real_and_partition(R2, grid2):
    assert np.max(np.abs(R2.data.imag)) == 0.0
    S = grid2.su_steps
    r0 = R2.window(0, S)[0, :, 0]
    rm = R2.window(-S, 0)[0, :, 0]
    assert np.max(np.abs(r0 ** 2 + rm ** 2 - 1)) < 1e-12


def test_r_chain_integrates_by_parts(params, grid9, R9):
    # independent oracle for the attached derivative chain: against a smooth
    # compactly supported test function, integral(R' phi) = -integral(R phi')
    # quadrature converges as the ramp transitions gain sample points
    from qhm.lattice import ScalarField, make_grid
    from test_lattice import gaussian_chain, integrate
    errs = []
    for refinement in (32, 96):
        grid = make_grid(params, refinement)
        R = build_R(params, grid)
        # R' phi + R phi' on R's rows, where both products live
        r = R.chain
        ph = gaussian_chain(grid, sigma=0.4).window(R.i0, R.i1)
        errs.append(abs(integrate(ScalarField(grid, R.i0, r[1:2] * ph[:1]
                                              + r[:1] * ph[1:2]))))
    assert errs[1] < 1e-5
    assert errs[1] < errs[0] / 10


def test_ramp_chain_matches_high_precision_oracle():
    # independent oracle: 50-digit numerical derivatives of the defining
    # form sqrt(phi(t) / (phi(t) + phi(1-t))), phi(t) = exp(-1/t), and its
    # mirror for the falling ramp
    mp = pytest.importorskip("mpmath").mp
    ts = np.linspace(T_MIN, 1 - T_MIN, 1002)[1:-1]

    def ramp(t, rising):
        phi_t, phi_1t = mp.exp(-1 / t), mp.exp(-1 / (1 - t))
        return mp.sqrt((phi_t if rising else phi_1t) / (phi_t + phi_1t))

    for rising in (True, False):
        chain = ramp_chain(ts, rising)
        for i, t in enumerate(ts):
            with mp.workdps(50):
                ref = [float(r) for r in mp.diffs(
                    lambda u: ramp(u, rising), mp.mpf(float(t)), CHAIN_DEPTH)]
            for n, r in enumerate(ref):
                err = abs(chain[n][i] - r)
                assert err <= 1e-12 * max(abs(r), 1e-12), (rising, t, n, err)


def test_ramp_chain_finite_at_the_widest_clip():
    ts = np.linspace(0.0, 1.0, 10001)
    for rising in (True, False):
        for c in ramp_chain(ts, rising):
            assert np.all(np.isfinite(c))

"""Grid, sampled-field and skew-torus spectral calculus tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhm import jets, morita
from qhm.calculus import StructureError, check_skew
from qhm.lattice import (CommensurabilityError, Grid, Params, ScalarField,
                         TorusFunction, WindowOverflowError, make_grid,
                         spectral_dy, y_bandwidth)
from oracles import character_frequencies


def steps_of(grid, dx):
    """Exact number of x-steps in a shift, or raise."""
    q = Fraction(dx) / grid.hx
    if q.denominator != 1:
        raise CommensurabilityError(f"shift {dx} is not a multiple of hx={grid.hx}")
    return int(q)


def integrate(f):
    """Equal-weight Riemann sum hx*hy*sum over the support x one y-period.

    Exact for trigonometric polynomials in y; superalgebraic for smooth
    compactly supported x-data.
    """
    g = f.grid
    return complex(np.sum(f.data)) * g.hx_f * g.hy_f


def eval_idx(g, i, j):
    """Value of a torus function at global grid points (i*hx, j*hy),
    reduced through the lattice L exactly."""
    S = g.grid.su_steps
    k = np.floor_divide(i, S)
    return g.samples[i - k * S, np.mod(j - k * g.grid.sv_steps, g.grid.ny)]


def gaussian_chain(grid, sigma=0.3, depth=3):
    """Truncated gaussian with its exact derivative chain (analytic oracle)."""
    funcs = []
    for n in range(depth + 1):
        def fn(x, n=n):
            x = np.asarray(x, float)
            g = np.exp(-x ** 2 / (2 * sigma ** 2))
            if n == 0:
                return g
            if n == 1:
                return -x / sigma ** 2 * g
            if n == 2:
                return (x ** 2 / sigma ** 4 - 1 / sigma ** 2) * g
            return (3 * x / sigma ** 4 - x ** 3 / sigma ** 6) * g
        funcs.append(fn)
    n2 = 2 * grid.nx_unit
    return ScalarField.from_function(grid, -n2, n2 + 1,
                                     lambda x: [fn(x) for fn in funcs])


class TestParams:
    def test_su_sv_are_exact_rationals(self):
        p = Params.from_steps(1, Fraction(1, 4), Fraction(1, 6))
        assert p.su == Fraction(1, 4)
        assert p.sv == Fraction(1, 6)
        assert p.mu == Fraction(1, 8)

    def test_su_range_enforced(self):
        with pytest.raises(ValueError):
            Params.from_steps(1, Fraction(3, 5), Fraction(1, 4))
        with pytest.raises(ValueError):
            Params.from_steps(1, Fraction(0), Fraction(0))

    def test_float_parameters_rejected(self):
        with pytest.raises(CommensurabilityError):
            Params.from_steps(1, 0.25, Fraction(1, 4))

    def test_grid_steps_divide_units(self, params):
        g = Grid(params, Fraction(1, 12), Fraction(1, 12))
        assert g.nx_unit == 12 and g.su_steps == 3
        assert g.ny == 12 and g.sv_steps == 3

    @pytest.mark.parametrize("c, sv, ny", [
        (1, Fraction(1, 4), 4), (2, Fraction(1, 4), 8),
        (3, Fraction(1, 3), 9), (1, Fraction(1, 3), 3),
        (1, Fraction(1, 2), 4), (1, Fraction(0), 3)])
    def test_default_ny_follows_the_y_bandwidth(self, c, sv, ny):
        # smallest multiple of sv's denominator that is at least 2B + 1,
        # B = c from R alone, whatever the refinement
        params = Params.from_steps(c, Fraction(1, 4), sv)
        assert y_bandwidth(params) == c
        for refinement in (1, 9, 405):
            g = make_grid(params, refinement)
            assert g.ny == ny and g.nx_unit == 4 * refinement
            assert g.ny >= 2 * y_bandwidth(params) + 1
            assert g.ny - sv.denominator < 2 * y_bandwidth(params) + 1
            if sv:
                assert g.sv_steps * g.hy == sv

    def test_grid_budget(self, params):
        # checked before any array exists: a deep ladder fits, a refinement
        # that would hold gigabytes does not, whichever way the grid is built
        assert make_grid(params, 2025).nx_unit == 8100
        with pytest.raises(WindowOverflowError):
            make_grid(params, 100_000)
        with pytest.raises(WindowOverflowError):
            Grid(params, Fraction(1, 4000), Fraction(1, 4000))

    def test_incommensurate_shift_raises(self, grid2):
        with pytest.raises(CommensurabilityError):
            steps_of(grid2, Fraction(1, 3))

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 3), sv=st.sampled_from(["1/4", "1/3", "1/5"]),
           a1=st.integers(-3, 3), a2=st.integers(-3, 3), b=st.integers(-3, 3))
    def test_twist_phase_cocycle(self, c, sv, a1, a2, b):
        # twist(a, b) = e(c a b (y - b sv/2)) is a character in a, and
        # swapping a and b costs the constant e(c a b (a - b) sv/2)
        grid = make_grid(Params.from_steps(c, Fraction(1, 4), Fraction(sv)), 1)
        svf = float(grid.params.sv)
        assert np.max(np.abs(grid.twist(a1, b) * grid.twist(a2, b)
                             - grid.twist(a1 + a2, b))) < 1e-12
        swap = np.exp(2j * math.pi * c * a1 * b * (a1 - b) * svf / 2)
        assert np.max(np.abs(grid.twist(a1, b)
                             - grid.twist(b, a1) * swap)) < 1e-12


    @pytest.mark.parametrize("sv, ny", [("1/3", 3), ("1/4", 4)])
    def test_y_roll_is_np_roll(self, sv, ny):
        # odd and even ny; the map is built once per shift mod ny, read-only
        grid = make_grid(Params.from_steps(1, Fraction(1, 4), Fraction(sv)), 1)
        assert grid.ny == ny
        a = np.random.default_rng(ny).normal(size=(3, 5, ny)) * (1 + 2j)
        for s in (0, 1, -1, ny, -ny, ny + 1, -ny - 1, -3 * ny + 2):
            idx = grid.y_roll(s)
            assert np.array_equal(a[..., idx], np.roll(a, s, axis=-1))
            assert np.array_equal(a[:, 1:4, idx], np.roll(a[:, 1:4], s, axis=-1))
            assert grid.y_roll(s + 2 * ny) is idx
            with pytest.raises(ValueError, match="read-only"):
                idx[0] = 1


class TestScalarField:
    def test_shift_is_exact_index_move(self, grid2, rng):
        f = gaussian_chain(grid2)
        g = f.shift_steps(steps_of(grid2, Fraction(1, 4)))
        # value at x of the shift equals value at x + su of the original
        i = grid2.su_steps
        assert np.allclose(g.window(0, 4)[0], f.window(i, 4 + i)[0])

    def test_product_chain_is_leibniz_exact(self, grid4):
        f = gaussian_chain(grid4)
        g = gaussian_chain(grid4, sigma=0.2)
        lo, hi = max(f.i0, g.i0), min(f.i1, g.i1)
        a, b = f.window(lo, hi), g.window(lo, hi)
        prod = jets.mul(a, b)
        expect = a[1] * b[0] + a[0] * b[1]
        assert np.max(np.abs(prod[1] - expect)) \
            < 1e-12 * max(np.max(np.abs(prod[0])), 1)

    def test_integrate_gaussian_oracle(self, params):
        # refinement-independent spectral accuracy of the Riemann sum
        vals = []
        for refinement in (8, 16):
            grid = make_grid(params, refinement)
            vals.append(integrate(gaussian_chain(grid)))
        exact = math.sqrt(2 * math.pi) * 0.3       # integral of the gaussian
        assert abs(vals[1] - exact) < 1e-9
        assert abs(vals[0] - vals[1]) < 1e-9

    def test_dy_on_character(self, grid2):
        f = gaussian_chain(grid2).y_phase(2, 0.0)
        d = ScalarField(grid2, f.i0, spectral_dy(f.chain, grid2))
        assert (d - f.scaled(4j * math.pi)).norm_inf() < 1e-10 * f.norm_inf()


def torus_character(grid, n, m):
    co = np.zeros((grid.su_steps, grid.ny), complex)
    co[n % grid.su_steps, m % grid.ny] = 1.0
    return TorusFunction.from_fft(grid, co)


class TestTorusFunction:
    def test_fft_round_trip(self, grid4, rng):
        samples = rng.normal(size=(grid4.su_steps, grid4.ny)) \
            + 1j * rng.normal(size=(grid4.su_steps, grid4.ny))
        g = TorusFunction(grid4, samples)
        back = TorusFunction.from_fft(grid4, g.fft())
        assert (back - g).norm_inf() < 1e-12 * g.norm_inf()

    def test_character_is_lattice_invariant(self, grid4):
        # chi(x + su, y + sv) = chi(x, y), evaluated through the lattice
        g = torus_character(grid4, 1, 1)
        i = np.arange(3 * grid4.su_steps)
        j = np.zeros_like(i)
        a = eval_idx(g, i, j)
        b = eval_idx(g, i + grid4.su_steps, j + grid4.sv_steps)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_derivative_eigenvalues(self, grid4):
        g = torus_character(grid4, 1, 1)
        kx, ky = character_frequencies(grid4)
        lx, ly = kx[1, 1], ky[1, 1]
        dx_err = (g.d_dx() - g * (2j * math.pi * lx)).norm_inf()
        dy_err = (g.d_dy() - g * (2j * math.pi * ly)).norm_inf()
        assert dx_err < 1e-10 and dy_err < 1e-10

    def test_antiderivative_inverts_derivative(self, grid4, rng):
        co = np.zeros((grid4.su_steps, grid4.ny), complex)
        for n in range(-1, 2):
            for m in range(-1, 2):
                co[n, m] = complex(rng.normal(), rng.normal())
        g = TorusFunction.from_fft(grid4, co)
        d = g.d_dx()
        back = d.antiderivative_x()
        # agreement up to the d/dx kernel (dx_kernel)
        assert (back.d_dx() - d).norm_inf() < 1e-10 * max(d.norm_inf(), 1)

    def test_antiderivative_rejects_kernel_content(self, grid4):
        one = TorusFunction(grid4, np.ones((grid4.su_steps, grid4.ny)))
        with pytest.raises(ValueError):
            one.antiderivative_x()

    def test_antiderivative_rejects_nyquist_content(self, grid4):
        # (-1)^i lies on the x-Nyquist row, which d/dx zeroes on an even
        # x-axis: it has no antiderivative and must not be dropped silently
        assert grid4.su_steps % 2 == 0
        alt = (-1.0) ** np.arange(grid4.su_steps)[:, None]
        g = TorusFunction(grid4, alt * np.ones((1, grid4.ny)))
        assert g.d_dx().norm_inf() < 1e-12
        with pytest.raises(ValueError, match="kernel"):
            g.antiderivative_x()

    def test_kept_transforms_are_read_only_and_exact(self, grid4, rng,
                                                     monkeypatch):
        # fft, d_dx and d_dy are taken once and kept: the samples and the
        # kept coefficients refuse writes, and a kept derivative is the one
        # a fresh function takes, bit for bit
        samples = rng.normal(size=(grid4.su_steps, grid4.ny)) \
            + 1j * rng.normal(size=(grid4.su_steps, grid4.ny))
        g = TorusFunction(grid4, samples)
        with pytest.raises(ValueError, match="read-only"):
            g.samples[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            g.fft()[0, 0] = 0
        assert g.fft() is g.fft() and g.d_dx() is g.d_dx()
        chain = g.derivative_chain(2)
        for mult, kept in ((grid4.dx_multiplier, g.d_dx()),
                           (grid4.dy_multiplier, g.d_dy())):
            fresh = TorusFunction(grid4, samples.copy())
            co = fresh.fft() * mult
            assert TorusFunction.from_fft(grid4, co).samples.tobytes() \
                == kept.samples.tobytes()
        assert chain[1].tobytes() == g.d_dx().samples.tobytes()
        # order 0 alone is the samples: no transform
        monkeypatch.setattr(np.fft, "fft", None)
        assert TorusFunction(grid4, samples).derivative_chain(0)[0].tobytes() \
            == samples.tobytes()

    def test_mixed_partials_commute(self, grid4, rng):
        samples = rng.normal(size=(grid4.su_steps, grid4.ny)) \
            + 1j * rng.normal(size=(grid4.su_steps, grid4.ny))
        g = TorusFunction(grid4, samples)
        a = g.d_dx().d_dy()
        b = g.d_dy().d_dx()
        assert (a - b).norm_inf() < 1e-9 * max(a.norm_inf(), 1)

    def test_skew_detection(self, grid2):
        g = TorusFunction(grid2, 1j * np.ones((grid2.su_steps, grid2.ny)))
        check_skew(g, "g")
        with pytest.raises(StructureError):
            check_skew(g + TorusFunction(
                grid2, np.ones((grid2.su_steps, grid2.ny))), "g + 1")


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 3), st.integers(-5, 5))
def test_character_derivative_property(n, m):
    grid = make_grid(DEFAULT_PARAMS, 4)
    g = torus_character(grid, n, m)
    kx, ky = character_frequencies(grid)
    ni, mi = n % grid.su_steps, m % grid.ny
    # self-paired Nyquist slots are zeroed by the odd-operator convention
    lx = 0.0 if (ni == grid.su_steps // 2 or mi == grid.ny // 2) \
        else kx[ni, mi]
    err = (g.d_dx() - g * (2j * math.pi * lx)).norm_inf()
    assert err < 1e-9


DEFAULT_PARAMS = Params.from_steps(1, Fraction(1, 4), Fraction(1, 4))


# The three rules (cell, shift, phase) by which twisted_rows unfolds and
# folded_rows folds: algebra.window's D and E rules for a component p, and
# morita.SpectralVector.eval_row's rule for an unstrided source vector, whose
# p is the X_BETA tag's.
FOLD_RULES = {
    "D": lambda g, p: (g.nx_unit, 0, lambda k: g.twist_or_none(k, p)),
    "E": lambda g, p: (g.su_steps, g.sv_steps, lambda k: g.twist_or_none(p, k)),
    "X_BETA": lambda g, p: (g.nx_unit, g.sv_steps, lambda k: g.twist_or_none(p, k)),
}
FOLD_P = [("D", -1), ("D", 2), ("E", -1), ("E", 2),
          ("X_BETA", morita._TAG_P[morita.X_BETA_USTAR_ALPHA])]
# (su, sv) per c; sv = 1/2 would hide the sign of a y-shift (2 sv_steps = ny)
FOLD_CASES = {1: (Fraction(1, 4), Fraction(1, 4)), 2: (Fraction(2, 7), Fraction(2, 5)),
              3: (Fraction(1, 5), Fraction(1, 3))}


@pytest.mark.parametrize("rule, p", FOLD_P)
@pytest.mark.parametrize("c", sorted(FOLD_CASES))
def test_folded_rows_is_the_adjoint_of_twisted_rows(rule, p, c):
    """<twisted_rows(a), b> = <a, folded_rows(b)> over a row range that
    starts below 0 and spans several cells, with phases other than 1 and,
    but for D, a y-shift whose sign matters mod ny: a sign error in either
    helper's y-shift or phase breaks it."""
    grid = make_grid(Params.from_steps(c, *FOLD_CASES[c]), 3, pairwise=True)
    cell, shift, phase = FOLD_RULES[rule](grid, p)
    assert rule == "D" or 2 * shift % grid.ny
    lo = -(cell + 2)
    hi = lo + 3 * cell + 5
    rng = np.random.default_rng(c)

    def draw(rows):  # a batch of two chains of order 1, y last
        shape = (2, rows, 2, grid.ny)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a, b = draw(cell), draw(hi - lo)
    lhs = np.vdot(grid.twisted_rows(a, lo, hi, cell, shift, phase), b)
    rhs = np.vdot(a, grid.folded_rows(b, lo, cell, shift, phase))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

"""Commensurate discretization of R x T and the skew torus.

All translations that occur anywhere in the calculus (integer shifts, shifts
by multiples of the deformation steps su, sv) are exact index maps on the
grid, so the algebraic identities downstream hold at machine precision.
Sampled fields carry a chain of exact x-derivatives, one (depth + 1, nx, ny)
array (see jets); the kernels propagate the chain by the Leibniz rule, which
keeps derivative-based identities exact as well.

The Grid owns every table its grid determines, each built once and kept
read-only: the y-samples, the twist phases and y-shift index maps, and the
skew-torus tables of TorusFunction (the two shear phases of fft and
from_fft, the d/dx multiplier and the Laplace eigenvalues).  There is one
d/dy multiplier, Grid.dy_multiplier, for spectral_dy, for delta_X and for
the torus.  One evaluator, Grid.twisted_rows, unfolds twisted-periodic rows
and its adjoint, Grid.folded_rows, is the one fold: bimodule.inner_D and
inner_E and morita.random_source_vector pass it their unfold's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List

import numpy as np

from . import jets

# Depth of the x-derivative chains that sampled fields and algebra elements
# carry.  Y-derivations consume one order each, and the deepest consumer,
# delta_Y of <R, Theta . R>_D in the Euler-Lagrange elements (yangmills),
# starts from the curvature Theta, which is built from R and so already has
# one order less than R.  Depth 2 is therefore the least whose chains never
# run out; at depth 1 that derivative raises (chain_dx).
CHAIN_DEPTH = 2

# Random test vectors (random_fields) of verify's pairings and of the tests'
# operator oracle for the criticality elements: the unit-width envelope on
# (-1/2, 1/2), moved by up to this many su in x and modulated by e(m y)
# with |m| up to this many modes.  Solve draws none; the pairwise band of
# y_bandwidth is sized for them.
BATTERY_Y_MODES = 1
BATTERY_SHIFT_UNITS = 1

# Every field's x-support lies in (-X_HALFWIDTH, X_HALFWIDTH) units, and a
# grid may hold at most GRID_BUDGET points of that window (Grid).
X_HALFWIDTH = 6
GRID_BUDGET = 10_000_000


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class CommensurabilityError(ValueError):
    """A shift or parameter does not land on the grid."""


class WindowOverflowError(RuntimeError):
    """A field's x-support left the configured window."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    raise CommensurabilityError(f"parameter {x!r} must be an exact rational (a Fraction)")


@dataclass(frozen=True)
class Params:
    """Deformation parameters of the manifold algebra.

    su = 2*hbar*mu and sv = 2*hbar*nu are the x/y translation steps of the
    Z-action; both must be rational so the grid can resolve them exactly.
    """

    c: int
    hbar: Fraction
    mu: Fraction
    nu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "hbar", _as_fraction(self.hbar))
        object.__setattr__(self, "mu", _as_fraction(self.mu))
        object.__setattr__(self, "nu", _as_fraction(self.nu))
        if not (isinstance(self.c, int) and self.c > 0):
            raise ValueError("c must be a positive integer")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.mu == 0 and self.nu == 0:
            raise ValueError("mu and nu must not both vanish")
        if not (0 < self.su < Fraction(1, 2)):
            raise ValueError(f"need 0 < 2*hbar*mu < 1/2, got su={self.su}")

    @cached_property
    def su(self) -> Fraction:
        return 2 * self.hbar * self.mu

    @cached_property
    def sv(self) -> Fraction:
        return 2 * self.hbar * self.nu

    @classmethod
    def from_steps(cls, c: int, su, sv, hbar=Fraction(1)) -> "Params":
        """Build params from the translation steps themselves."""
        hbar = _as_fraction(hbar)
        su = _as_fraction(su)
        sv = _as_fraction(sv)
        return cls(c=c, hbar=hbar, mu=su / (2 * hbar), nu=sv / (2 * hbar))


@dataclass(frozen=True)
class Grid:
    """Sampling lattice: hx divides both 1 and su, hy divides both 1 and sv,
    and the x-window holds at most GRID_BUDGET points."""

    params: Params
    hx: Fraction
    hy: Fraction
    _twists: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)   # twist(a, b) by (a, b)
    _y_rolls: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)  # y_roll(s) by s mod ny

    def __post_init__(self):
        for step, unit in ((self.hx, Fraction(1)), (self.hx, self.params.su),
                           (self.hy, Fraction(1)), (self.hy, self.params.sv)):
            if unit != 0 and (unit / step).denominator != 1:
                raise CommensurabilityError(f"{step} does not divide {unit}")
        points = 2 * self.i_bound * self.ny  # checked before any array exists
        if points > GRID_BUDGET:
            raise WindowOverflowError(f"the grid needs {points} points, above the "
                                      f"budget of {GRID_BUDGET}; lower the refinement")

    @cached_property
    def nx_unit(self) -> int:
        """Grid points per unit x-interval."""
        return int(1 / self.hx)

    @cached_property
    def ny(self) -> int:
        """Grid points per y-period."""
        return int(1 / self.hy)

    @cached_property
    def su_steps(self) -> int:
        return int(self.params.su / self.hx)

    @cached_property
    def sv_steps(self) -> int:
        return int(self.params.sv / self.hy)

    @cached_property
    def hx_f(self) -> float:
        return float(self.hx)

    @cached_property
    def hy_f(self) -> float:
        return float(self.hy)

    @cached_property
    def i_bound(self) -> int:
        return X_HALFWIDTH * self.nx_unit

    @cached_property
    def ys(self) -> np.ndarray:
        """The y-samples j*hy of one period (read-only)."""
        return _read_only(np.arange(self.ny) * self.hy_f)

    @cached_property
    def dy_multiplier(self) -> np.ndarray:
        """2 pi i m on the y-modes m of one period (fft layout), zero on the
        unmatched Nyquist mode: the one d/dy multiplier, of spectral_dy and
        of TorusFunction.d_dy (read-only)."""
        m = self._y_modes()
        if self.ny % 2 == 0:
            m[self.ny // 2] = 0.0
        return _read_only(2j * math.pi * m)

    # The skew-torus tables: TorusFunction keeps its coefficients against
    # the dual characters chi_{n,m}(x, y) = e(n x/su + m (y - (sv/su) x)),
    # fft layout in (n, m), on the su_steps x ny fundamental-domain samples.
    # chi_{n,m} has d/dx = 2 pi i kx and d/dy = 2 pi i m, kx = (n - sv m)/su.

    def _y_modes(self) -> np.ndarray:
        return np.fft.fftfreq(self.ny, d=1.0 / self.ny)

    def _kx(self) -> np.ndarray:
        n = np.fft.fftfreq(self.su_steps, d=1.0 / self.su_steps)
        su, sv = float(self.params.su), float(self.params.sv)
        return (n[:, None] - sv * self._y_modes()[None, :]) / su

    def _skew_cycles(self) -> np.ndarray:
        """(sv/su) x_i m on the fundamental domain: the shear of the skew
        torus, in cycles."""
        shear = float(self.params.sv / self.params.su) * self.x_of(np.arange(self.su_steps))
        return np.outer(shear, self._y_modes())

    @cached_property
    def shear_phase(self) -> np.ndarray:
        """e((sv/su) x m), the phase of TorusFunction.fft (read-only)."""
        return _read_only(np.exp(2j * math.pi * self._skew_cycles()))

    @cached_property
    def shear_phase_inv(self) -> np.ndarray:
        """e(-(sv/su) x m), the phase of TorusFunction.from_fft (read-only)."""
        return _read_only(np.exp(-2j * math.pi * self._skew_cycles()))

    @cached_property
    def dx_multiplier(self) -> np.ndarray:
        """2 pi i kx, the d/dx multiplier, zero on the unmatched Nyquist
        slots of even-length axes: those are self-paired but carry a nonzero
        label, so an odd operator must vanish there to keep Hermitian
        symmetry (read-only)."""
        mult = 2j * math.pi * self._kx()
        if self.ny % 2 == 0:
            mult[:, self.ny // 2] = 0.0
        if self.su_steps % 2 == 0:
            mult[self.su_steps // 2, :] = 0.0
        return _read_only(mult)

    @cached_property
    def laplace_multiplier(self) -> np.ndarray:
        """-4 pi^2 (kx^2 + m^2), the eigenvalues of d2/dx2 + d2/dy2 on the
        dual characters (read-only)."""
        ky = self._y_modes()[None, :]
        return _read_only(-4.0 * math.pi ** 2 * (self._kx() ** 2 + ky ** 2))

    @cached_property
    def s_phase(self) -> np.ndarray:
        """e(c y^2 / sv) on the y-samples, the phase of morita.map_S (read-only)."""
        return _read_only(np.exp(2j * math.pi * self.params.c * self.ys ** 2
                                 / float(self.params.sv)))

    def twist(self, a: int, b: int) -> np.ndarray:
        """e(c a b (y - b sv/2)), e(t) = exp(2 pi i t): the twisted
        periodicity of the calculus.  A D-component p gains twist(k, p)
        across k unit cells, an E-component p or a Morita vector twist(p, k)
        across k cells (twisted_rows).  Built once per pair of integers and
        kept read-only.  Where a b = 0 the exponent is +-0 and the phase
        is exactly 1 +- 0j; the kernels skip that multiply (twist_or_none)."""
        ph = self._twists.get((a, b))
        if ph is None:
            c, sv = self.params.c, float(self.params.sv)
            ph = self._twists[(a, b)] = _read_only(
                np.exp(2j * math.pi * c * a * b * (self.ys - b * sv / 2)))
        return ph

    def twist_or_none(self, a: int, b: int):
        """twist(a, b), or None where a b = 0 and the phase is exactly 1:
        the one rule by which the kernels skip a unit phase (see bimodule)."""
        return self.twist(a, b) if a * b else None

    def y_roll(self, s: int) -> np.ndarray:
        """Index map of a y-shift: a[..., y_roll(s)] == np.roll(a, s, axis=-1)
        for any array whose last axis has length ny, as one gather.  Every
        y-shift of the calculus goes through it.  Built once per s mod ny
        and kept read-only."""
        s %= self.ny
        idx = self._y_rolls.get(s)
        if idx is None:
            idx = self._y_rolls[s] = _read_only((np.arange(self.ny) - s) % self.ny)
        return idx

    def y_shifted(self, a: np.ndarray, s: int) -> np.ndarray:
        """np.roll(a, s, axis=-1): the gather a[..., y_roll(s)], or a
        itself (no copy) where s = 0 mod ny and the gather is the identity."""
        return a[..., self.y_roll(s)] if s % self.ny else a

    def twisted_rows(self, rows: np.ndarray, lo: int, hi: int, cell: int,
                     shift: int, phase) -> np.ndarray:
        """Rows [lo, hi) of a twisted-periodic function from its `cell`
        fundamental-domain rows on axis 1 (y last): row k cell + r is row r
        moved in y by k shift steps, times the phase row phase(k), filled
        cell by cell.  algebra.window (flavors D and E) and
        morita.SpectralVector.eval_row (the four Morita spaces) use it; a
        phase of None (twist_or_none) leaves the cell as it is."""
        out = np.empty((len(rows), hi - lo) + rows.shape[2:], complex)
        for k in range(lo // cell, (hi - 1) // cell + 1):
            r0, r1 = max(lo, k * cell), min(hi, (k + 1) * cell)
            vals = self.y_shifted(rows[:, r0 - k * cell:r1 - k * cell], k * shift)
            ph = phase(k)
            if ph is None:
                out[:, r0 - lo:r1 - lo] = vals
            else:
                np.multiply(vals, ph, out=out[:, r0 - lo:r1 - lo])
        return out

    def folded_rows(self, term: np.ndarray, lo: int, cell: int, shift: int,
                    phase) -> np.ndarray:
        """The adjoint of twisted_rows: row k cell + r of term (rows [lo, ...)
        on axis 1) moved in y by -k shift steps, times phase(-k), added onto
        row r of a +0 accumulator, highest cell first (None: no multiply)."""
        hi = lo + term.shape[1]
        acc = np.zeros((len(term), cell) + term.shape[2:], complex)
        for k in range((hi - 1) // cell, lo // cell - 1, -1):
            r0, r1 = max(lo, k * cell), min(hi, (k + 1) * cell)
            blk = self.y_shifted(term[:, r0 - lo:r1 - lo], -k * shift)
            ph = phase(-k)
            if ph is not None:
                blk = blk * ph
            acc[:, r0 - k * cell:r1 - k * cell] += blk
        return acc

    def x_of(self, i) -> np.ndarray:
        return np.asarray(i, dtype=float) * self.hx_f


def y_bandwidth(params: Params, pairwise: bool = False) -> int:
    """Largest |y-frequency| that the spectral y-operations of a run meet.

    Only the y-derivative inside delta_X and the torus FFTs act spectrally
    in y; products are pointwise, so they need no band.  Row x of
    component p of <R, f>_D carries e(-c k p y) times the y-modes of f,
    where k is the unit block the row of R came from.  R is constant in y
    and vanishes outside (-su/2, 3su/4) (projection.build_R), so k is 0 or
    -1, and only k = -1 carries a phase.

    The solve pipeline meets only what R itself makes, so B = c:
    - Q = <R, R>_D has |k p| <= 1.
    - Theta(X,Y), Theta(Y,Z), G1 and G3 do not depend on y.
    - t = <R, T . R>_D for a multiplication-type T has the band of Q.
    - Theta0(X,Z) is zero to rounding, which verify's curvature_xz_vanishes
      checks.

    With pairwise=True the band is that of <f, g>_D for two random test
    vectors (random_fields), as `qhm verify` and the tests' operator oracle
    form them.  A vector lies in (-1/2 - s su, 1/2 + s su) with
    s = BATTERY_SHIFT_UNITS, so f reaches block -1 itself, |p| < 1/su + 2s,
    and both vectors bring their modes:
    B = c * max|k p| + 2 * BATTERY_Y_MODES.
    """
    if not pairwise:
        return params.c
    reach = 1 / params.su + 2 * BATTERY_SHIFT_UNITS
    kp = math.ceil(reach) - 1  # largest integer strictly below reach
    return params.c * kp + 2 * BATTERY_Y_MODES


def make_grid(params: Params, refinement: int, pairwise: bool = False) -> Grid:
    """Grid with hx = 1/(b*refinement) for su = a/b, and ny y-samples.

    Both 1 and su are integer multiples of hx, and both 1 and sv of hy =
    1/ny, so every translation in the calculus is an exact index shift;
    hy divides sv = a'/b' exactly when b' divides ny.

    ny does not follow the refinement: it is the smallest multiple of b'
    that is at least 2B + 1, with B = y_bandwidth(params, pairwise), so
    every y-mode the pipeline creates lies strictly below the Nyquist line
    ny/2 and the spectral y-derivative is exact on it: 4 samples for c = 1
    at su = sv = 1/4.  pairwise=True sizes ny for <f, g>_D of two random
    test vectors, as `qhm verify` forms them (16 samples there).
    """
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    bp = params.sv.denominator
    ny = bp * -(-(2 * y_bandwidth(params, pairwise) + 1) // bp)
    return Grid(params, Fraction(1, params.su.denominator * refinement), Fraction(1, ny))


class ScalarField:
    """Complex sampled function on R x T with compact x-support.

    data[i, j] is the value at (x, y) = ((i0 + i)*hx, j*hy); y is periodic.
    `chain` is the (depth + 1, nx, ny) array whose entry n samples the exact
    n-th x-derivative, data = chain[0]; the kernels propagate the chain
    (Leibniz rule), so it stays exact through the calculus.  A batch of
    fields on the same rows, as the bimodule kernels make from a batch of
    elements, is one (depth + 1, nx, B, ny) chain.
    """

    __slots__ = ("grid", "i0", "chain")

    def __init__(self, grid: Grid, i0: int, chain: jets.Chain):
        self.grid = grid
        self.i0 = int(i0)
        self.chain = np.asarray(chain, complex)
        if self.chain.ndim not in (3, 4) or self.chain.shape[-1] != grid.ny:
            raise ValueError(f"chain shape {self.chain.shape} != "
                             f"(depth + 1, nx[, batch], {grid.ny})")
        nx = self.chain.shape[1]
        if nx and (self.i0 < -grid.i_bound or self.i0 + nx > grid.i_bound):
            raise WindowOverflowError(
                f"support [{self.i0}, {self.i0 + nx}) exceeds window +-{grid.i_bound}"
            )

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, grid: Grid, depth: int = 0) -> "ScalarField":
        return cls(grid, 0, np.zeros((depth + 1, 0, grid.ny), complex))

    @classmethod
    def from_function(cls, grid: Grid, i_lo: int, i_hi: int, chain_of) -> "ScalarField":
        """Sample a closed-form x-profile, constant in y.

        `chain_of` maps x-samples to the (depth + 1, len(xs)) chain there.
        """
        xs = grid.x_of(np.arange(i_lo, i_hi))
        ones = np.ones((1, grid.ny), complex)
        chain = np.asarray(chain_of(xs), complex)[:, :, None] * ones
        return cls(grid, i_lo, chain).trimmed()

    # -- basic queries ---------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        return self.chain[0]

    @property
    def depth(self) -> int:
        return len(self.chain) - 1

    @property
    def nx(self) -> int:
        return self.chain.shape[1]

    @property
    def i1(self) -> int:
        return self.i0 + self.nx

    def norm_inf(self) -> float:
        """Sup-norm of the values, order 0 of the chain."""
        return float(np.max(np.abs(self.data))) if self.nx else 0.0

    def upto(self, depth: int) -> "ScalarField":
        """This field with its chain orders above `depth` dropped (a view)."""
        return ScalarField(self.grid, self.i0, self.chain[:depth + 1])

    def trimmed(self) -> "ScalarField":
        """Drop leading/trailing all-zero x-rows (every chain entry zero)."""
        if self.nx == 0:
            return self
        rest = (0, 2) if self.chain.ndim == 3 else (0, 2, 3)
        idx = np.flatnonzero(np.any(self.chain, axis=rest))
        if idx.size == 0:
            return ScalarField(self.grid, 0, self.chain[:, :0])
        lo, hi = idx[0], idx[-1] + 1
        return ScalarField(self.grid, self.i0 + lo, self.chain[:, lo:hi])

    def members(self) -> List["ScalarField"]:
        """The fields of a batch, each trimmed to its own rows (views)."""
        return [ScalarField(self.grid, self.i0, self.chain[:, :, i]).trimmed()
                for i in range(self.chain.shape[2])]

    def window(self, i_lo: int, i_hi: int) -> jets.Chain:
        """The chain on rows [i_lo, i_hi), zero outside support."""
        out = np.zeros((len(self.chain), i_hi - i_lo, self.grid.ny), complex)
        lo = max(i_lo, self.i0)
        hi = min(i_hi, self.i1)
        if hi > lo:
            out[:, lo - i_lo:hi - i_lo] = self.chain[:, lo - self.i0:hi - self.i0]
        return out

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "ScalarField"):
        if self.grid is not other.grid and self.grid != other.grid:
            raise ValueError("grid mismatch")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check(other)
        depth = min(self.depth, other.depth)
        if self.nx == 0:
            return ScalarField(self.grid, other.i0, other.chain[:depth + 1])
        if other.nx == 0:
            return ScalarField(self.grid, self.i0, self.chain[:depth + 1])
        lo = min(self.i0, other.i0)
        hi = max(self.i1, other.i1)
        return ScalarField(self.grid, lo, self.window(lo, hi)[:depth + 1]
                           + other.window(lo, hi)[:depth + 1])

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return self + (-other)

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, self.i0, -self.chain)

    def scaled(self, z: complex) -> "ScalarField":
        return ScalarField(self.grid, self.i0, z * self.chain)

    def shift_steps(self, kx: int) -> "ScalarField":
        """result(x, y) = f(x + kx*hx, y); exact index move."""
        return ScalarField(self.grid, self.i0 - kx, self.chain)

    def y_phase(self, cycles: float, const: float) -> "ScalarField":
        """Multiply by e(cycles*y + const) with e(t) = exp(2*pi*i*t)."""
        ph = np.exp(2j * math.pi * (cycles * self.grid.ys + const))
        return ScalarField(self.grid, self.i0, self.chain * ph)


def chain_dx(chain: jets.Chain) -> jets.Chain:
    """Chain of the x-derivative: the given chain less its first entry."""
    if len(chain) < 2:
        raise ValueError("derivative chain exhausted: an x-derivative needs "
                         "a chain deeper than the field carries (CHAIN_DEPTH)")
    return chain[1:]


def spectral_dy(a: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral y-derivative along the last axis, which has length grid.ny."""
    if a.size == 0:
        return a.copy()
    return np.fft.ifft(np.fft.fft(a, axis=-1) * grid.dy_multiplier, axis=-1)


# -- skew-torus functions ------------------------------------------------


class TorusFunction:
    """Function on R^2 / L with L generated by (su, sv) and (0, 1).

    Sampled on the fundamental domain [0, su) x [0, 1); evaluation at any
    lattice-commensurate point reduces through L exactly, so L-invariance
    holds by construction.

    Immutable (the samples array it is given becomes read-only), so fft and
    the first derivatives d_dx, d_dy are taken once and kept, fft read-only.
    """

    __slots__ = ("grid", "samples", "_coeffs", "_dx", "_dy")

    def __init__(self, grid: Grid, samples: np.ndarray):
        self.grid = grid
        self.samples = np.ascontiguousarray(samples, dtype=complex)
        self.samples.flags.writeable = False
        if self.samples.shape != (grid.su_steps, grid.ny):
            raise ValueError(
                f"samples must be ({grid.su_steps}, {grid.ny}), got {self.samples.shape}"
            )
        self._coeffs = self._dx = self._dy = None

    @classmethod
    def zeros(cls, grid: Grid) -> "TorusFunction":
        """Zero, whose transform and first derivatives take no FFT; these
        are a second zero, as a self-reference is a cycle that holds the grid."""
        dz = cls(grid, np.zeros((grid.su_steps, grid.ny), complex))
        z = cls(grid, dz.samples)
        z._coeffs = dz._coeffs = dz.samples
        z._dx = z._dy = dz
        return z

    # arithmetic ----------------------------------------------------------

    def _binop(self, other, op):
        if isinstance(other, TorusFunction):
            return TorusFunction(self.grid, op(self.samples, other.samples))
        return TorusFunction(self.grid, op(self.samples, other))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, np.true_divide)

    def __neg__(self):
        return TorusFunction(self.grid, -self.samples)

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def mean(self) -> complex:
        return complex(np.mean(self.samples))

    # spectral machinery (the tables are the Grid's) ----------------------

    def fft(self) -> np.ndarray:
        """Coefficients wrt the dual characters
        chi_{n,m}(x,y) = e(n*x/su + m*(y - (sv/su)*x)); array indexed
        fft-style in (n, m)."""
        co = self._coeffs
        if co is None:
            g = self.grid
            f1 = np.fft.fft(self.samples, axis=1) / g.ny
            f1 *= g.shear_phase
            co = self._coeffs = _read_only(np.fft.fft(f1, axis=0) / g.su_steps)
        return co

    @classmethod
    def from_fft(cls, grid: Grid, coeffs: np.ndarray) -> "TorusFunction":
        f1 = np.fft.ifft(coeffs, axis=0) * grid.su_steps
        f1 *= grid.shear_phase_inv
        return cls(grid, np.fft.ifft(f1, axis=1) * grid.ny)

    def d_dx(self) -> "TorusFunction":
        if self._dx is None:
            self._dx = TorusFunction.from_fft(self.grid, self.fft() * self.grid.dx_multiplier)
        return self._dx

    def d_dy(self) -> "TorusFunction":
        """d/dy by Grid.dy_multiplier, which keeps the x-Nyquist row:
        ky = m does not involve n."""
        if self._dy is None:
            self._dy = TorusFunction.from_fft(self.grid, self.fft() * self.grid.dy_multiplier)
        return self._dy

    def dx_kernel(self) -> np.ndarray:
        """Mask of the kernel of the discrete d/dx (fft layout): the kx = 0
        line and the Nyquist slots that Grid.dx_multiplier zeroes, among
        them the whole x-Nyquist row of an even-length x-axis."""
        return np.abs(self.grid.dx_multiplier) < 1e-12

    def antiderivative_x(self) -> "TorusFunction":
        """Spectral x-antiderivative, zero on dx_kernel, where the input
        must vanish: content there has no antiderivative and raises."""
        co = self.fft()
        kernel = self.dx_kernel()
        bad = float(np.max(np.abs(co[kernel])))  # kx = 0 holds the mean
        scale = max(float(np.max(np.abs(co))), 1e-300)
        if bad > 1e-10 * scale:
            raise ValueError(
                f"x-antiderivative needs input without d/dx-kernel content (residual {bad:.2e})"
            )
        out = np.zeros_like(co)
        np.divide(co, self.grid.dx_multiplier, out=out, where=~kernel)
        return TorusFunction.from_fft(self.grid, out)

    def derivative_chain(self, depth: int) -> jets.Chain:
        """Chain (G, G_x, G_xx, ...) to the given depth (spectral); order 1
        is the kept d_dx, and depth 0 takes no transform."""
        mult = self.grid.dx_multiplier
        out = np.empty((depth + 1,) + self.samples.shape, complex)
        out[0] = self.samples
        cur = self.fft() if depth else None
        for n in range(1, depth + 1):
            cur = cur * mult
            out[n] = (self.d_dx() if n == 1
                      else TorusFunction.from_fft(self.grid, cur)).samples
        return out

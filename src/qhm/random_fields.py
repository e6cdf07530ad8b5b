"""Seeded generators for test batteries.

Module vectors are built from integer translates and y-characters of a
smooth compactly supported envelope, so they carry exact derivative chains;
torus functions are random band-limited combinations of the dual
characters.  Everything is driven by a caller-supplied Generator for
reproducibility.
"""

from __future__ import annotations

import numpy as np

from .lattice import (BATTERY_SHIFT_UNITS, BATTERY_Y_MODES, Grid, ScalarField,
                      TorusFunction)
from .projection import bump_chain


def smooth_envelope(grid: Grid) -> ScalarField:
    """A C-infinity bump on (-1/2, 1/2): up-ramp, plateau, down-ramp."""
    n2 = grid.nx_unit // 2
    return ScalarField.from_function(
        grid, -n2, n2 + 1, lambda x: bump_chain(x, -0.5, 0.25, 0.25))


def random_module_vector(grid: Grid, rng: np.random.Generator,
                         envelope: ScalarField) -> ScalarField:
    """Random smooth vector: sum of three copies of the envelope, each moved
    by up to BATTERY_SHIFT_UNITS su in x and modulated by e(m y) with
    |m| <= BATTERY_Y_MODES."""
    out = ScalarField.zeros(grid, envelope.depth)
    for _ in range(3):
        kx = int(rng.integers(-BATTERY_SHIFT_UNITS * grid.su_steps,
                              BATTERY_SHIFT_UNITS * grid.su_steps + 1))
        m = int(rng.integers(-BATTERY_Y_MODES, BATTERY_Y_MODES + 1))
        coef = complex(rng.normal(), rng.normal())
        out = out + envelope.shift_steps(kx).y_phase(m, rng.uniform()).scaled(coef)
    return out


def random_torus_function(grid: Grid, rng: np.random.Generator) -> TorusFunction:
    """Skew (purely imaginary) random function on the skew torus, band
    limited to the dual characters with |n| <= 2, |m| <= 1.

    The coefficient array is made Hermitian before multiplying by i.
    """
    nx, ny = grid.su_steps, grid.ny
    co = np.zeros((nx, ny), complex)
    for n in range(-2, 3):
        for m in range(-1, 2):
            co[n % nx, m % ny] = complex(rng.normal(), rng.normal())
    # co[-n, -m], indices mod (nx, ny)
    rev = np.roll(co[::-1, ::-1], 1, axis=(0, 1))
    co = 1j * (0.5 * (co + np.conj(rev)))
    return TorusFunction.from_fft(grid, co)


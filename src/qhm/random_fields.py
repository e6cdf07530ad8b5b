"""Seeded generators for test batteries.

Module vectors are built from integer translates and y-characters of a
smooth compactly supported envelope, so they carry exact derivative chains;
torus functions are random band-limited combinations of the dual
characters.  Everything is driven by a caller-supplied Generator for
reproducibility.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .calculus import Perturbation
from .lattice import (BATTERY_SHIFT_UNITS, BATTERY_Y_MODES, Grid, ScalarField,
                      TorusFunction, y_bandwidth)
from .projection import BumpSpec, bump_chain


def smooth_envelope(grid: Grid, spec: BumpSpec = BumpSpec()) -> ScalarField:
    """A C-infinity bump on (-1/2, 1/2): up-ramp, plateau, down-ramp."""
    n2 = grid.nx_unit // 2
    return ScalarField.from_function(
        grid, -n2, n2 + 1, lambda x: bump_chain(x, -0.5, 0.25, 0.25, spec))


def random_module_vector(grid: Grid, rng: np.random.Generator,
                         y_modes: int = BATTERY_Y_MODES,
                         max_shift_units: int = BATTERY_SHIFT_UNITS,
                         envelope: Optional[ScalarField] = None) -> ScalarField:
    """Random smooth vector: sum of three shifted, y-modulated envelope
    copies."""
    if envelope is None:
        envelope = smooth_envelope(grid)
    out = ScalarField.zeros(grid, envelope.depth)
    for _ in range(3):
        kx = int(rng.integers(-max_shift_units * grid.su_steps,
                              max_shift_units * grid.su_steps + 1))
        m = int(rng.integers(-y_modes, y_modes + 1))
        coef = complex(rng.normal(), rng.normal())
        out = out + envelope.shift_steps(kx, 0).y_phase(m, rng.uniform()).scaled(coef)
    return out


def make_battery(grid: Grid, count: int, seed: int,
                 include: Sequence[ScalarField] = ()) -> List[ScalarField]:
    """Deterministic battery of smooth test vectors.

    Pairs of battery vectors carry the pairwise y-band (lattice.y_bandwidth),
    so a grid with fewer than 2B + 1 y-samples is refused: build it with
    make_grid(..., pairwise=True).
    """
    band = y_bandwidth(grid.params, pairwise=True)
    if grid.ny < 2 * band + 1:
        raise ValueError(f"ny = {grid.ny} cannot hold the battery's pairwise "
                         f"y-band {band}; it needs at least {2 * band + 1}")
    rng = np.random.default_rng(seed)
    env = smooth_envelope(grid)
    return list(include) + [random_module_vector(grid, rng, envelope=env)
                            for _ in range(count)]


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


def random_perturbation(grid: Grid, rng: np.random.Generator) -> Perturbation:
    return Perturbation(random_torus_function(grid, rng),
                        random_torus_function(grid, rng),
                        random_torus_function(grid, rng))

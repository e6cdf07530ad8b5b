"""Shared fixtures: the default parameters, grids and bump vectors.

The grid fixtures take hy = hx = 1/(4 * refinement), so ny grows with the
refinement: the tests that use them build general random vectors and pair
them, whose y-content the narrower default grid of a solve run does not
carry.
"""

from fractions import Fraction

import numpy as np
import pytest

from qhm.lattice import Grid, Params
from qhm.projection import build_R


DEFAULT = Params.from_steps(1, Fraction(1, 4), Fraction(1, 4))


@pytest.fixture(scope="session")
def params():
    return DEFAULT


def square_grid(params, refinement):
    """hx = hy = 1/(4 * refinement), for su = sv = 1/4."""
    h = Fraction(1, 4 * refinement)
    return Grid(params, h, h)


@pytest.fixture(scope="session")
def grid2(params):
    return square_grid(params, 2)


@pytest.fixture(scope="session")
def grid4(params):
    return square_grid(params, 4)


@pytest.fixture(scope="session")
def grid8(params):
    return square_grid(params, 8)


@pytest.fixture(scope="session")
def grid9(params):
    return square_grid(params, 9)


@pytest.fixture(scope="session")
def R2(params, grid2):
    return build_R(params, grid2)


@pytest.fixture(scope="session")
def R4(params, grid4):
    return build_R(params, grid4)


@pytest.fixture(scope="session")
def R9(params, grid9):
    return build_R(params, grid9)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)

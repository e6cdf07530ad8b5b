"""Derivative-chain arithmetic against the per-order reference loops."""

import math

import numpy as np
import pytest

from qhm import jets


def _mul_reference(a, b):
    """The Leibniz rule term by term: out[n] += comb(n, j) a[j] b[n - j],
    j ascending, onto a zero buffer."""
    depth = min(len(a), len(b)) - 1
    out = np.zeros_like(a[:depth + 1])
    for n in range(depth + 1):
        for j in range(n + 1):
            out[n] += math.comb(n, j) * a[j] * b[n - j]
    return out


def _chain_with_zeros(rng, depth, rows=7, ny=5):
    """Random complex chain whose real and imaginary parts are +0.0 or -0.0
    at about a third of the entries each, some entries wholly."""
    shape = (depth + 1, rows, ny)
    re, im = rng.normal(size=shape), rng.normal(size=shape)
    for part in (re, im):
        hit = rng.random(shape) < 0.35
        part[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return re + 1j * im


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


@pytest.mark.parametrize("depth", range(5))
def test_mul_matches_the_term_loop_bitwise(depth):
    rng = np.random.default_rng(100 + depth)
    for extra_a, extra_b in ((0, 0), (1, 0), (0, 2)):
        a = _chain_with_zeros(rng, depth + extra_a)
        b = _chain_with_zeros(rng, depth + extra_b)
        _assert_bitwise(jets.mul(a, b), _mul_reference(a, b))
        # row windows of larger chains, as star and the actions pass them
        _assert_bitwise(jets.mul(a[:, 1:6], b[:, 2:7]),
                        _mul_reference(a[:, 1:6], b[:, 2:7]))


def test_mul_takes_chains_of_any_sample_shape():
    # the ramp chains of projection are (depth + 1, n); fields add ny
    rng = np.random.default_rng(7)
    for shape in ((3, 9), (4, 2, 3, 5)):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = rng.normal(size=shape) - 2j * rng.normal(size=shape)
        _assert_bitwise(jets.mul(a, b), _mul_reference(a, b))

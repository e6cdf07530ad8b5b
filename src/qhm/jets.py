"""Truncated derivative-chain arithmetic (Taylor-mode differentiation).

A chain is one array whose leading axis is the derivative order: chain[n]
holds the n-th x-derivative f^(n) at the same sample points, so a chain of
depth d over an (nx, ny) grid has shape (d + 1, nx, ny), or (d + 1, nx, B,
ny) for a batch of B chains on the same rows.  Each operation
returns the chain of its result to the depth of its input, by the standard
recurrences of Taylor-mode differentiation (Griewank & Walther, Evaluating
Derivatives, 2nd ed., ch. 13), written for derivatives instead of Taylor
coefficients.
"""

from __future__ import annotations

import functools
import math

import numpy as np

Chain = np.ndarray


@functools.cache
def _binomial_columns(depth: int, ndim: int):
    """For j = 1..depth the column comb(n, j), n = j..depth, shaped to
    broadcast over the orders of a chain whose orders have ndim axes
    (complex, so that C_j * a[j] is the same complex product as
    comb(n, j) * a[j]; read-only)."""
    cols = []
    for j in range(1, depth + 1):
        col = np.array([math.comb(n, j) for n in range(j, depth + 1)], complex)
        col = col.reshape((-1,) + (1,) * ndim)
        col.flags.writeable = False
        cols.append(col)
    return cols


def mul(a: Chain, b: Chain) -> Chain:
    """Leibniz rule: the chain of a*b, to the shorter depth.

    out[n] = sum_j comb(n, j) a[j] b[n - j], formed for all n at once per
    j: each order's terms are added in ascending j onto +0.  The orders of
    the two factors broadcast against each other (a batch against a
    singleton batch axis, which an unbatched factor gains)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != b.ndim:
        a, b = (a[:, :, None], b) if a.ndim < b.ndim else (a, b[:, :, None])
    depth = min(len(a), len(b)) - 1
    out = a[0] * b[:depth + 1]
    out += 0.0  # x + 0.0 has the bits of +0 + x
    for j, col in enumerate(_binomial_columns(depth, out.ndim - 1), 1):
        out[j:] += (col * a[j]) * b[:depth + 1 - j]
    return out


def exp(a: Chain) -> Chain:
    """Chain of e^a: b' = a' b, differentiated n - 1 times."""
    out = np.zeros_like(a)
    out[0] = np.exp(a[0])
    for n in range(1, len(a)):
        for j in range(n):
            out[n] += math.comb(n - 1, j) * a[j + 1] * out[n - 1 - j]
    return out


def power(a: Chain, alpha: float) -> Chain:
    """Chain of a**alpha for a > 0: a b' = alpha a' b, differentiated n - 1
    times and solved for b^(n)."""
    out = np.zeros_like(a)
    out[0] = a[0] ** alpha
    for n in range(1, len(a)):
        for j in range(n):
            w = alpha * math.comb(n - 1, j) - math.comb(n - 1, j + 1)
            out[n] += w * a[j + 1] * out[n - 1 - j]
        out[n] /= a[0]
    return out

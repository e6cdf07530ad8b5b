"""Truncated derivative-chain arithmetic (Taylor-mode differentiation).

A chain is one array whose leading axis is the derivative order: chain[n]
holds the n-th x-derivative f^(n) at the same sample points, so a chain of
depth d over an (nx, ny) grid has shape (d + 1, nx, ny).  Each operation
returns the chain of its result to the depth of its input, by the standard
recurrences of Taylor-mode differentiation (Griewank & Walther, Evaluating
Derivatives, 2nd ed., ch. 13), written for derivatives instead of Taylor
coefficients.
"""

from __future__ import annotations

import math

import numpy as np

Chain = np.ndarray


def mul(a: Chain, b: Chain) -> Chain:
    """Leibniz rule: the chain of a*b, to the shorter depth."""
    depth = min(len(a), len(b)) - 1
    out = np.zeros_like(a[:depth + 1])
    for n in range(depth + 1):
        for j in range(n + 1):
            out[n] += math.comb(n, j) * a[j] * b[n - j]
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

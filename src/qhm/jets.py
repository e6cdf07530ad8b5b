"""Truncated derivative-chain arithmetic (Taylor-mode differentiation).

A chain is the list [f, f', ..., f^(d)] of a function's x-derivatives at
the same sample points.  Each operation returns the chain of its result to
the depth of its input, by the standard recurrences of Taylor-mode
differentiation (Griewank & Walther, Evaluating Derivatives, 2nd ed.,
ch. 13), written for derivatives instead of Taylor coefficients.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

Chain = List[np.ndarray]


def mul(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> Chain:
    """Leibniz rule: the chain of a*b, to the shorter depth."""
    depth = min(len(a), len(b)) - 1
    out = []
    for n in range(depth + 1):
        acc = np.zeros_like(a[0])
        for j in range(n + 1):
            acc += math.comb(n, j) * a[j] * b[n - j]
        out.append(acc)
    return out


def exp(a: Sequence[np.ndarray]) -> Chain:
    """Chain of e^a: b' = a' b, differentiated n - 1 times."""
    out = [np.exp(a[0])]
    for n in range(1, len(a)):
        acc = np.zeros_like(out[0])
        for j in range(n):
            acc += math.comb(n - 1, j) * a[j + 1] * out[n - 1 - j]
        out.append(acc)
    return out


def power(a: Sequence[np.ndarray], alpha: float) -> Chain:
    """Chain of a**alpha for a > 0: a b' = alpha a' b, differentiated n - 1
    times and solved for b^(n)."""
    out = [a[0] ** alpha]
    for n in range(1, len(a)):
        acc = np.zeros_like(out[0])
        for j in range(n):
            w = alpha * math.comb(n - 1, j) - math.comb(n - 1, j + 1)
            acc += w * a[j + 1] * out[n - 1 - j]
        out.append(acc / a[0])
    return out

"""The Q-tilde polynomial family in Chern generators.

Q_i = c_i on single parts; pairs are given by the quadratic formula with
alternating correction terms, and longer indices reduce by the odd/even
length recurrences.  The recurrences are implemented for arbitrary weakly
decreasing indices (the even-length rule invokes pairs with repeated
parts); removal is positional, which keeps the index sorted.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition
from .polynomial import CPolynomial


@lru_cache(maxsize=None)
def _q_single(i: int) -> CPolynomial:
    if i < 0:
        return CPolynomial.zero()
    if i == 0:
        return CPolynomial.one()
    return CPolynomial.gen("c", i)


@lru_cache(maxsize=None)
def qtilde_pair(i: int, j: int) -> CPolynomial:
    """Q_{i,j} = Q_i Q_j + 2 sum_{p=1..j} (-1)^p Q_{i+p} Q_{j-p}, for i >= j >= 0."""
    if i < j:
        raise ValueError(f"pair indices must satisfy i >= j, got ({i}, {j})")
    total = _q_single(i) * _q_single(j)
    for p in range(1, j + 1):
        term = 2 * (_q_single(i + p) * _q_single(j - p))
        total = total + (-term if p % 2 else term)
    return total


@lru_cache(maxsize=None)
def qtilde(mu: Partition) -> CPolynomial:
    """Q_mu as an explicit polynomial in c_1, c_2, ...

    Empty index gives 1, single parts give c_i, pairs use the displayed
    formula, and longer indices reduce through the odd/even recurrences
    with positional removal.
    """
    mu = Partition(mu)
    parts = mu.parts
    length = len(parts)
    if length == 0:
        return CPolynomial.one()
    if length == 1:
        return _q_single(parts[0])
    if length == 2:
        return qtilde_pair(parts[0], parts[1])
    total = CPolynomial.zero()
    if length % 2 == 1:
        for p in range(length):
            rest = Partition(parts[:p] + parts[p + 1:])
            term = _q_single(parts[p]) * qtilde(rest)
            total = total + (term if p % 2 == 0 else -term)
    else:
        for p in range(1, length):
            rest = Partition(parts[1:p] + parts[p + 1:])
            term = qtilde_pair(parts[0], parts[p]) * qtilde(rest)
            # printed sign (-1)^p with p counted from 1
            total = total + (term if (p + 1) % 2 == 0 else -term)
    return total

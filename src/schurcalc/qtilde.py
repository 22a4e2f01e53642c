"""The Q-tilde polynomial family in Chern generators.

Q_i = c_i on single parts; pairs are given by the quadratic formula with
alternating correction terms, and Q_mu is the Pfaffian of the pair classes
Q_{mu_i, mu_j} (Pragacz).  The Pfaffian is taken for arbitrary weakly
decreasing indices (its minors hold pairs with repeated parts); removal is
positional, which keeps the index sorted.
"""

from functools import cache

from .partitions import Partition, check_term_budget
from .polynomial import CPolynomial


@cache
def _q_single(i: int) -> CPolynomial:
    if i < 0:
        return CPolynomial.zero()
    if i == 0:
        return CPolynomial.one()
    return CPolynomial.gen("c", i)


@cache
def qtilde_pair(i: int, j: int) -> CPolynomial:
    """Q_{i,j} = Q_i Q_j + 2 sum_{p=1..j} (-1)^p Q_{i+p} Q_{j-p}, for i >= j >= 0."""
    if i < j:
        raise ValueError(f"pair indices must satisfy i >= j, got ({i}, {j})")
    total = _q_single(i) * _q_single(j)
    for p in range(1, j + 1):
        term = 2 * (_q_single(i + p) * _q_single(j - p))
        total = total + (-term if p % 2 else term)
    return total


@cache
def qtilde(mu: Partition) -> CPolynomial:
    """Q_mu as an explicit polynomial in c_1, c_2, ...

    The Pfaffian of the pairs expanded along its first row, with a zero part
    appended to an index of odd length since Q_{i,0} = Q_i:
    Q_mu = sum_{p>=2} (-1)^p Q_{mu_1, mu_p} Q_{mu without parts 1 and p}.
    A weight whose p(|mu|) monomials exceed the output budget is rejected.
    """
    mu = Partition(mu)
    check_term_budget(mu.weight)
    parts = mu.parts + (0,) * (len(mu) % 2)
    if not parts:
        return CPolynomial.one()
    total = CPolynomial.zero()
    for p in range(1, len(parts)):
        term = qtilde_pair(parts[0], parts[p]) * qtilde(Partition(parts[1:p] + parts[p + 1:]))
        total = total + (term if p % 2 else -term)
    return total


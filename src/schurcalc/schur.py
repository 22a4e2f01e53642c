"""Schur functions: s_lam as a c-polynomial, c-polynomials and products in
the Schur basis.

Everything here runs on the Pieri core of pieri.py.  With the dual Pieri
step (c_k = s_(1^k) adds vertical k-strips), to_schur folds each c-monomial
from 1 and schur_dual_jt builds s_lam on c-monomials by column peels,
pieri_build with monomial_step, which bundles.py reads as index tuples.
pair_product multiplies two Schur classes, for lr_multiply and for the
Schur-basis evaluation of schureval.py.  A ring command loads this module
only for an s atom that it reads as a c-polynomial.

The polynomial layer is imported by the functions that build c-polynomials
(schur_dual_jt, from_schur) when they run, so lr and schur-bundle, which
build none, never load it.
"""

from functools import cache

from .partitions import FAMILY_C, FAMILY_CPRIME, Partition, check_term_budget
from .pieri import OPEN, Expansion, column_peel, monomial_fold, pieri_build, vertical_strips


@cache
def schur_dual_jt(lam: Partition, family: str = FAMILY_C) -> "CPolynomial":
    """s_lambda in raw c-generators, built on c-monomials by column peels; no
    rank bound.  A weight past the output budget is rejected."""
    from .polynomial import CPolynomial

    lam = Partition(lam)
    check_term_budget(lam.weight)
    built = pieri_build((), lam, monomial_step, None, column_peel, OPEN)
    return CPolynomial({tuple(((family, i), 1) for i in m): c for m, c in built.items()})


def monomial_step(lam: tuple[int, ...], k: int, bound) -> tuple:
    """(c_lam . c_k, 1) for a c-monomial lam (indices ascending); no bound."""
    return ((tuple(sorted(lam + (k,))), 1),)


def to_schur(p: "CPolynomial", length_bound: int | None = None) -> Expansion:
    """Expand a homogeneous single-family polynomial over the Schur basis.

    Each monomial is built by the dual Pieri rule, so the work follows
    the size of the output.  The expansion over all partitions of the
    degree is unique; when a length bound is given, any support on longer
    partitions makes the input inexpressible and raises.
    """
    check_schur_families(p.families())
    p.homogeneous_degree()  # raises on an inhomogeneous p
    coeffs = {}
    for mono, coeff in p.terms.items():
        for lam, c in monomial_fold(mono, vertical_strips, OPEN).items():
            coeffs[lam] = coeffs.get(lam, 0) + coeff * c
    return schur_expansion(coeffs, length_bound)


def check_schur_families(families: set[str]) -> None:
    """Reject generator families that one Schur expansion cannot read: two or
    more, or v1 or v2.  c_k and c'_k both read as s_(1^k)."""
    if len(families) > 1:
        raise ValueError(f"polynomial mixes generator families: {sorted(families)}")
    if not families <= {FAMILY_C, FAMILY_CPRIME}:
        raise ValueError("Schur expansion is defined for c-type families only")


def schur_expansion(coeffs: dict[tuple[int, ...], int],
                    length_bound: int | None = None) -> Expansion:
    """The Expansion of Schur coefficients on tuples of parts, of one weight
    since both callers check homogeneity first.  With a length bound, support
    on longer partitions makes the input inexpressible and raises."""
    if length_bound is not None:
        long = [lam for lam, c in coeffs.items() if c and len(lam) > length_bound]
        if long:
            raise ValueError(
                f"not expressible with length bound {length_bound}: "
                f"support on {sorted(long)}"
            )
    return Expansion(coeffs)


def pair_product(lam: tuple[int, ...], mu: tuple[int, ...]):
    """(kappa, m) pairs of s_lam . s_mu = sum m s_kappa, each kappa once.

    A column (1^k), which is c_k, is one vertical strip step on the other
    class; any other pair builds the lighter class on the heavier by column
    peels.  Neither side is held to a budget here.
    """
    if sum(mu) > sum(lam):
        lam, mu = mu, lam
    if not mu:
        return ((lam, 1),)
    if mu[0] == 1:
        return vertical_strips(lam, len(mu), OPEN)
    if lam[0] == 1:
        return vertical_strips(mu, len(lam), OPEN)
    return pieri_build(lam, mu, vertical_strips, OPEN, column_peel, OPEN).items()


def from_schur(x: Expansion, family: str = FAMILY_C) -> "CPolynomial":
    """Inverse of to_schur: substitute the defining polynomials and expand."""
    from .polynomial import CPolynomial

    total = CPolynomial.zero()
    for lam, coeff in x.items():
        total = total + coeff * schur_dual_jt(lam, family)
    return total


def lr_multiply(lam: Partition, mu: Partition) -> Expansion:
    """Littlewood-Richardson s_lam . s_mu: the lighter class, its weight held
    to the output budget, built on the heavier."""
    lam, mu = Partition(lam), Partition(mu)
    check_term_budget(min(lam.weight, mu.weight))
    return Expansion(dict(pair_product(lam, mu)), degree=lam.weight + mu.weight)

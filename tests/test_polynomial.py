import random

import pytest

from schurcalc.polynomial import (
    FAMILY_C,
    FAMILY_CPRIME,
    FAMILY_V1,
    FAMILY_V2,
    CPolynomial,
    truncate_family,
)
from schurcalc.partitions import Partition
from schurcalc.pairing import enumerate_partitions
from schurcalc.qtilde import qtilde

from oracles import monomials_of_degree, poly_det, specialize


def monomial_to_partition(mono):
    """Index partition of a single-family monomial (c_mu -> mu)."""
    return Partition(sorted((g[1] for g, e in mono for _ in range(e)), reverse=True))


def c(i):
    return CPolynomial.gen(FAMILY_C, i)


def random_poly(rng, max_degree=8, families=(FAMILY_C,), max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = []
        degree = 0
        while degree < max_degree and rng.random() < 0.7:
            fam = rng.choice(families)
            if fam in (FAMILY_V1, FAMILY_V2):
                g, d = (fam, 0), 1
            else:
                idx = rng.randint(1, max_degree - degree)
                g, d = (fam, idx), idx
            mono.append((g, 1))
            degree += d
        key = tuple(mono)
        terms[key] = terms.get(key, 0) + rng.randint(-9, 9)
    return CPolynomial(terms)


def test_examples():
    assert c(1) * c(1) == CPolynomial({(((FAMILY_C, 1), 2),): 1})
    p = c(2) * c(2) - c(1) * c(3)
    assert p + c(1) * c(3) == c(2) * c(2)
    assert (CPolynomial.zero() * p).is_zero()
    assert str(c(1) ** 3 + 3 * c(1) * c(2) + 2 * c(3)) == "c1^3 + 3*c1*c2 + 2*c3"


def test_ring_axioms_randomized():
    rng = random.Random(20260810)
    fams = (FAMILY_C, FAMILY_CPRIME, FAMILY_V1, FAMILY_V2)
    for _ in range(120):
        a = random_poly(rng, families=fams)
        b = random_poly(rng, families=fams)
        d = random_poly(rng, families=fams)
        assert (a * b) * d == a * (b * d)
        assert a * (b + d) == a * b + a * d
        assert a * b == b * a
        assert a + (b + d) == (a + b) + d
        assert a - a == CPolynomial.zero()


def test_homogeneous_product_degree_adds():
    rng = random.Random(5150)
    for _ in range(50):
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        a = CPolynomial({m: rng.randint(-3, 3)
                         for m in monomials_of_degree(d1, FAMILY_C)})
        b = CPolynomial({m: rng.randint(-3, 3)
                         for m in monomials_of_degree(d2, FAMILY_C)})
        product = a * b
        if product.is_zero():
            continue
        assert product.homogeneous_degree() == d1 + d2


def test_homogeneity_queries():
    assert (c(1) ** 2).homogeneous_degree() == 2
    assert CPolynomial.zero().homogeneous_degree() is None
    mixed = c(1) + c(2)
    assert not mixed.is_homogeneous()
    with pytest.raises(ValueError):
        mixed.homogeneous_degree()
    v = CPolynomial.gen(FAMILY_V1) * CPolynomial.gen(FAMILY_V2)
    assert v.homogeneous_degree() == 2


def test_specialize_examples():
    p = c(1) * c(2)
    assert specialize(p, {(FAMILY_C, 2): CPolynomial.zero()}).is_zero()

    v1, v2 = CPolynomial.gen(FAMILY_V1), CPolynomial.gen(FAMILY_V2)
    expanded = specialize(c(1) ** 2, {(FAMILY_C, 1): v1 + v2})
    assert expanded == v1 ** 2 + 2 * v1 * v2 + v2 ** 2

    q21 = qtilde(Partition([2, 1]))
    assert specialize(q21, {(FAMILY_C, 3): CPolynomial.zero()}) == c(1) * c(2)

    with pytest.raises(ValueError):
        specialize(c(2), {(FAMILY_C, 2): c(1)})  # degree mismatch


def test_specialize_commutes_with_multiplication():
    rng = random.Random(77)
    assignment = {
        (FAMILY_C, 1): CPolynomial.gen(FAMILY_V1) + 2 * CPolynomial.gen(FAMILY_V2),
        (FAMILY_C, 2): CPolynomial.gen(FAMILY_V1) * CPolynomial.gen(FAMILY_V2),
        (FAMILY_C, 3): CPolynomial.zero(),
    }
    for _ in range(40):
        a = random_poly(rng, max_degree=4)
        b = random_poly(rng, max_degree=4)
        left = specialize(a * b, assignment)
        right = specialize(a, assignment) * specialize(b, assignment)
        assert left == right


def test_generator_validation():
    from schurcalc.polynomial import generator

    assert generator(FAMILY_V1) == (FAMILY_V1, 0)
    with pytest.raises(ValueError):
        generator(FAMILY_V1, 3)  # line classes take no index
    with pytest.raises(ValueError):
        generator(FAMILY_C, 0)
    with pytest.raises(ValueError):
        generator("x", 1)


def test_truncate_family():
    p = c(1) * c(3) + c(2) ** 2
    assert truncate_family(p, FAMILY_C, 2) == c(2) ** 2
    assert truncate_family(p, FAMILY_CPRIME, 1) == p


def test_truncation_keeps_exactly_the_monomials_within_the_rank():
    # the one-pass truncation against the monomial-wise definition, on
    # polynomials that mix every family, and its result stays canonical
    rng = random.Random(7)
    families = (FAMILY_C, FAMILY_CPRIME, FAMILY_V1, FAMILY_V2)
    for _ in range(300):
        p = random_poly(rng, families=families, max_terms=8)
        for family in (FAMILY_C, FAMILY_CPRIME):
            for rank in range(6):
                kept = {mono: coeff for mono, coeff in p.terms.items()
                        if all(g[0] != family or g[1] <= rank for g, _ in mono)}
                q = p.truncated(family, rank)
                assert q.terms == kept and q == CPolynomial(kept), (p, family, rank)
                assert truncate_family(p, family, rank) == q


def test_monomials_of_degree_matches_partitions():
    for d in range(7):
        monos = monomials_of_degree(d, FAMILY_C)
        assert [monomial_to_partition(m) for m in monos] == enumerate_partitions(d)


def test_poly_det_small():
    one = CPolynomial.one()
    zero = CPolynomial.zero()
    assert poly_det([]) == one
    assert poly_det([[c(2), c(3)], [one, c(1)]]) == c(1) * c(2) - c(3)
    assert poly_det([[c(1), zero], [zero, c(1)]]) == c(1) ** 2


def test_string_forms():
    assert str(CPolynomial.zero()) == "0"
    assert str(CPolynomial.constant(-3)) == "0 - 3"
    assert str(c(2) - c(1) ** 2) == "0 - c1^2 + c2"
    assert str(CPolynomial.gen(FAMILY_CPRIME, 2)) == "c'2"

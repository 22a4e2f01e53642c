import pytest

from schurcalc.partitions import (
    Partition,
    StrictPartition,
    enumerate_strict_partitions,
    partitions_up_to,
)
from schurcalc.polynomial import FAMILY_C, CPolynomial
from schurcalc.qtilde import qtilde, qtilde_pair
from schurcalc.rings import LagrangianRing
from schurcalc.schur import Expansion

from oracles import ideal_generator


def c(i):
    return CPolynomial.gen(FAMILY_C, i)


def test_base_cases():
    assert qtilde(Partition()) == CPolynomial.one()
    for i in range(1, 7):
        assert qtilde(Partition([i])) == c(i)


def test_pair_formula_examples():
    assert qtilde(Partition([1, 1])) == c(1) ** 2 - 2 * c(2)
    assert qtilde(Partition([2, 1])) == c(2) * c(1) - 2 * c(3)
    assert qtilde(Partition([2, 2])) == c(2) ** 2 - 2 * c(3) * c(1) + 2 * c(4)


def test_pair_telescopes_at_zero():
    for i in range(7):
        expected = CPolynomial.one() if i == 0 else c(i)
        assert qtilde_pair(i, 0) == expected
    with pytest.raises(ValueError):
        qtilde_pair(1, 2)


def test_degree_and_support_through_weight_10():
    for mu in partitions_up_to(10):
        value = qtilde(mu)
        if mu.weight == 0:
            assert value == CPolynomial.one()
            continue
        assert value.homogeneous_degree() == mu.weight
        assert value.families() <= {FAMILY_C}


def test_square_pairs_generate_but_vanish_in_quotient():
    for i in range(1, 5):
        square = qtilde(Partition([i, i]))
        assert not square.is_zero()
        for n in range(i, 5):
            ring = LagrangianRing(n)
            if 2 * i > ring.top_degree:
                continue  # the relation lives above the graded range
            truncated = ideal_generator(ring, i)
            assert not truncated.is_zero()
            assert ring.reduce(truncated).is_zero()


def test_expand_examples():
    lg = LagrangianRing(2)
    assert lg.reduce(c(1)).coefficients == {StrictPartition([1]): 1}
    assert lg.reduce(c(1) ** 2).coefficients == {StrictPartition([2]): 2}
    assert lg.reduce(c(1) * c(2)).coefficients == {StrictPartition([2, 1]): 1}


def test_expand_round_trip():
    for n in range(1, 5):
        ring = LagrangianRing(n)
        for d in range(ring.top_degree + 1):
            for mu in enumerate_strict_partitions(d, n):
                result = ring.reduce(ring.basis_polynomial(mu))
                assert result.coefficients == {mu: 1}


def test_qexpansion_rejects_nonstrict_keys():
    with pytest.raises(ValueError):
        Expansion({Partition([2, 2]): 1}, key=StrictPartition)


def test_recurrences_accept_weakly_decreasing_indices():
    # the even-length recurrence invokes pairs with repeated parts
    value = qtilde(Partition([2, 2, 1, 1]))
    assert value.homogeneous_degree() == 6
    odd = qtilde(Partition([3, 1, 1]))
    assert odd.homogeneous_degree() == 5

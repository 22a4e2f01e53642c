import math
from math import prod

import pytest

from schurcalc.bundles import ssyt_weights
from schurcalc.commands import parse_partition_arg
from schurcalc.partitions import (
    Partition,
    StrictPartition,
    TERM_BUDGET,
    TERM_DEGREE,
    check_term_budget,
    conjugate,
)
from schurcalc.positivity import hook_contains
from schurcalc.pairing import enumerate_partitions, enumerate_strict_partitions
from schurcalc.schubert import rectangle_dual, staircase, strict_complement

from oracles import partition_count, partitions_up_to


def test_construction_strips_zeros_and_validates():
    assert Partition([3, 1, 0, 0]).parts == (3, 1)
    assert Partition().parts == ()
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])
    with pytest.raises(ValueError):
        StrictPartition([2, 2])


def test_partition_arguments():
    assert parse_partition_arg("3,1") == Partition([3, 1])
    assert parse_partition_arg("0") == Partition()
    assert parse_partition_arg("") == Partition()
    assert parse_partition_arg("[]") == Partition()
    assert parse_partition_arg("[2,1]") == Partition([2, 1])
    assert parse_partition_arg("2,1", strict=True) == StrictPartition([2, 1])
    with pytest.raises(ValueError):
        parse_partition_arg("1,2")
    with pytest.raises(ValueError):
        parse_partition_arg("2,2", strict=True)
    with pytest.raises(ValueError):
        parse_partition_arg("a,b")


def test_conjugate_examples():
    assert conjugate(Partition([3, 1])) == Partition([2, 1, 1])
    assert conjugate(Partition()) == Partition()
    assert conjugate(Partition([2, 2])) == Partition([2, 2])


def test_conjugate_is_involution_through_weight_12():
    for lam in partitions_up_to(12):
        assert lam.conjugate().conjugate() == lam


def test_rectangle_dual_examples():
    assert rectangle_dual(Partition([1]), 2, 4) == Partition([2, 1])
    assert rectangle_dual(Partition(), 2, 4) == Partition([2, 2])
    assert rectangle_dual(Partition([2, 2]), 2, 4) == Partition()
    with pytest.raises(ValueError):
        rectangle_dual(Partition([3]), 2, 4)


def test_rectangle_dual_involution_and_weight():
    for n in range(2, 7):
        for r in range(1, n):
            cols = n - r
            for d in range(r * cols + 1):
                for lam in enumerate_partitions(d, max_part=cols, max_length=r):
                    dual = rectangle_dual(lam, r, n)
                    assert rectangle_dual(dual, r, n) == lam
                    assert lam.weight + dual.weight == r * cols


def test_strict_complement_examples():
    assert strict_complement(StrictPartition([1]), 2) == StrictPartition([2])
    for n in range(1, 7):
        assert strict_complement(staircase(n), n) == StrictPartition()
    assert strict_complement(StrictPartition([3, 1]), 3) == StrictPartition([2])
    with pytest.raises(ValueError):
        strict_complement(StrictPartition([4]), 3)


def test_strict_complement_involution():
    for n in range(1, 7):
        top = n * (n + 1) // 2
        for d in range(top + 1):
            for mu in enumerate_strict_partitions(d, n):
                dual = strict_complement(mu, n)
                assert strict_complement(dual, n) == mu
                assert mu.weight + dual.weight == top


def test_enumerate_partitions_counts_and_order():
    counts = [len(enumerate_partitions(d)) for d in range(10)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert enumerate_partitions(2) == [Partition([2]), Partition([1, 1])]
    assert enumerate_partitions(4, max_part=2) == [
        Partition([2, 2]), Partition([2, 1, 1]), Partition([1, 1, 1, 1])]
    assert enumerate_partitions(0) == [Partition()]
    assert enumerate_partitions(5, max_length=2) == [
        Partition([5]), Partition([4, 1]), Partition([3, 2])]


def test_partition_count_and_the_term_budget():
    assert [partition_count(d) for d in range(-1, 23)] == \
        [0] + [len(enumerate_partitions(d)) for d in range(23)]
    assert partition_count(60) == 966467
    # the budget is p(40), the size of certify "c1^40", and TERM_DEGREE the
    # highest degree within it
    assert TERM_BUDGET == partition_count(40) == 37338
    assert TERM_DEGREE == 40
    assert partition_count(TERM_DEGREE) <= TERM_BUDGET < partition_count(TERM_DEGREE + 1)
    for d in (None, -1, 0, 1, 40):
        check_term_budget(d)
    for d in (41, 400, 10 ** 9):
        with pytest.raises(ValueError, match=f"degree {d} exceeds the output budget: "
                                             f"p\\({d}\\) > 37338 terms"):
            check_term_budget(d)


def test_partition_global_order_is_reverse_lexicographic():
    lams = enumerate_partitions(6)
    assert lams == sorted(lams, key=lambda p: p.sort_key())
    assert lams[0] == Partition([6])
    assert lams[-1] == Partition([1] * 6)


def test_ssyt_examples():
    assert ssyt_weights(Partition([2]), 2) == ((2, 0), (1, 1), (0, 2))
    assert ssyt_weights(Partition([1, 1]), 2) == ((1, 1),)
    assert ssyt_weights(Partition([2, 1]), 2) == ((2, 1), (1, 2))
    assert ssyt_weights(Partition(), 3) == ((0, 0, 0),)
    # more rows than entries: no tableau
    assert ssyt_weights(Partition([1, 1, 1]), 2) == ()


def _weyl_dimension(lam: Partition, n: int) -> int:
    num = prod(lam.part(i) - lam.part(j) + j - i
               for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return num // prod(j - i for i in range(1, n + 1) for j in range(i + 1, n + 1))


def test_ssyt_counts_match_binomials():
    for n in range(1, 6):
        for k in range(1, 7):
            assert len(ssyt_weights(Partition([1] * k), n)) == math.comb(n, k)
            assert len(ssyt_weights(Partition([k]), n)) == math.comb(n + k - 1, k)
    # every shape of weight <= 6: the count is Weyl's dimension, and each
    # weight lists the entries of a tableau of that shape
    for d in range(7):
        for lam in enumerate_partitions(d):
            for n in range(6):
                weights = ssyt_weights(lam, n)
                expected = _weyl_dimension(lam, n) if len(lam) <= n else 0
                assert len(weights) == expected, (lam, n)
                assert all(len(w) == n and sum(w) == d for w in weights), (lam, n)
                # the lower bound schur_bundle_class rejects huge inputs by
                if lam.parts and len(lam) < n:
                    assert len(weights) >= max(n, d + 1), (lam, n)
    assert ssyt_weights(Partition([1]), 0) == ()


def test_hook_contains():
    # every part after the n-th must be <= m
    assert hook_contains(Partition([1, 1, 1]), 1, 3)
    assert hook_contains(Partition([5]), 1, 0)
    assert not hook_contains(Partition([2, 2]), 1, 1)
    assert hook_contains(Partition([4, 1, 1]), 1, 1)
    assert hook_contains(Partition(), 0, 0)
    assert not hook_contains(Partition([1]), 0, 0)


def test_partition_json():
    assert Partition([3, 1]).to_json() == [3, 1]
    assert Partition(Partition([3, 1]).to_json()) == Partition([3, 1])


def test_partitions_hash_and_compare_as_the_tuple_of_their_parts():
    # hashing and equality are tuple's own, in C; a Python-level override
    # would make every Expansion key a Python call again
    for cls in (Partition, StrictPartition):
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__
        assert cls.__ne__ is tuple.__ne__
    assert Partition([2, 1]) == (2, 1) == StrictPartition([2, 1])
    assert hash(Partition([2, 1])) == hash((2, 1)) == hash(StrictPartition([2, 1]))
    assert Partition([3, 1, 0]) == (3, 1) and Partition() == ()
    assert {(2, 1): "x"}[Partition([2, 1])] == "x"
    assert isinstance(Partition([2, 1]), tuple)
    assert type(Partition([2, 1]).parts) is tuple
    # + and * are tuple's, and return plain tuples
    assert Partition([2, 1]) + Partition([1]) == (2, 1, 1)
    assert type(Partition([2, 1]) + (1,)) is tuple
    assert type(Partition([1]) * 2) is tuple and Partition([1]) * 2 == (1, 1)
    # a partition of the wanted type is returned as it is
    lam = Partition([2, 1])
    assert Partition(lam) is lam
    assert type(StrictPartition(lam)) is StrictPartition
    assert type(Partition(StrictPartition(lam))) is Partition


def test_partition_order_is_sort_key_and_lt_gt_only():
    one_one, two = Partition([1, 1]), Partition([2])
    # by weight, then reverse lexicographic: (2) comes before (1, 1)
    assert two < one_one and one_one > two
    assert not one_one < two and not two > one_one
    assert Partition([3]) > one_one
    assert max(one_one, two) == one_one and min(one_one, two) == two
    for a, b in ((one_one, two), (Partition([1]), StrictPartition([2]))):
        for op in ("<=", ">="):
            with pytest.raises(TypeError) as info:
                eval(f"a {op} b")
            assert str(info.value) == (f"'{op}' not supported between instances of "
                                       f"'{type(a).__name__}' and '{type(b).__name__}'")
    # no lexicographic order against a plain tuple either, by any of the four
    for compare in (lambda: one_one <= (2,), lambda: one_one >= (2,),
                    lambda: (2,) <= one_one, lambda: (2,) >= one_one,
                    lambda: sorted([Partition([3]), (2, 1)]), lambda: Partition([3]) < (2, 1),
                    lambda: (2, 1) < Partition([3]), lambda: Partition([3]) > (2, 1),
                    lambda: (2, 1) > Partition([3])):
        with pytest.raises(TypeError, match="^partitions compare only with partitions; "
                                            "got tuple$"):
            compare()


def test_bad_partition_input_messages_are_unchanged():
    cases = [
        (Partition, [2, -1], "partition parts must be positive: (2, -1)"),
        (Partition, [0, 1], "partition parts must be positive: (0, 1)"),
        (Partition, [3, 0, 1], "partition parts must be positive: (3, 0, 1)"),
        (Partition, [1, 2, 0], "partition parts must be weakly decreasing: (1, 2)"),
        (Partition, ["a"], "invalid literal for int() with base 10: 'a'"),
        (StrictPartition, [1, 2], "partition parts must be weakly decreasing: (1, 2)"),
        (StrictPartition, [2, 2, -1], "partition parts must be positive: (2, 2, -1)"),
        (StrictPartition, [2, 2], "parts must be strictly decreasing: (2, 2)"),
        (StrictPartition, [3, 1, 1, 0], "parts must be strictly decreasing: (3, 1, 1)"),
        (StrictPartition, Partition([2, 2]), "parts must be strictly decreasing: (2, 2)"),
    ]
    for cls, parts, message in cases:
        with pytest.raises(ValueError) as info:
            cls(parts)
        assert str(info.value) == message, (cls, parts)
    with pytest.raises(TypeError, match="'int' object is not iterable"):
        Partition(5)
    assert repr(Partition([2, 1])) == "Partition([2, 1])"
    assert repr(StrictPartition()) == "StrictPartition([])"


def test_json_writer_refuses_a_bare_partition():
    from schurcalc.cli import to_json

    # to_json takes values of exactly its types, so a Partition, a tuple
    # subtype, is refused; commands write list(lam)
    for value in (Partition([2, 1]), StrictPartition([2, 1]), {"p": Partition([1])}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            to_json(value)
    assert to_json({"partition": list(Partition([2, 1]))}) == '{"partition":[2,1]}'


def test_a_tuple_and_a_partition_read_one_basis_product_entry():
    from schurcalc.rings import GrassmannianRing, LagrangianRing

    for ring, lam, mu in ((GrassmannianRing(2, 5), Partition([2, 1]), Partition([1])),
                          (LagrangianRing(3), StrictPartition([2]), StrictPartition([1]))):
        first = ring.basis_product(tuple(lam), tuple(mu))
        assert len(ring.basis_products) == 1
        again = ring.basis_product(lam, mu)
        assert len(ring.basis_products) == 1
        assert again == first and again is not first
        assert again.coefficients is not first.coefficients
        assert ring.basis_product(list(lam), mu) == first
        assert len(ring.basis_products) == 1
        # a one-shot iterable is read once, as its tuple: the product is
        # right and enters under the index itself
        assert ring.basis_product(iter(lam), iter(mu)) == first
        assert len(ring.basis_products) == 1
    assert GrassmannianRing(2, 4).basis_product(iter([1]), iter([1])) == \
        GrassmannianRing(2, 4).basis_product(Partition([1]), Partition([1]))

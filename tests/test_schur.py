import random
from math import factorial, prod

import pytest

from schurcalc.partitions import (
    Partition,
    StrictPartition,
    enumerate_partitions,
    hook_contains,
    partitions_up_to,
)
from schurcalc.polynomial import (
    FAMILY_C,
    FAMILY_CPRIME,
    CPolynomial,
)
from schurcalc.schur import (
    BundleSymbol,
    Expansion,
    complete_from_elementary,
    elementary_super,
    from_schur,
    lr_multiply,
    schur_dual_jt,
    schur_jt,
    super_split,
    super_split_poly,
    supersymmetric_s,
    supersymmetrize,
    to_schur,
)

from oracles import lr_oracle, monomials_of_degree, schur_jt_dual_form, to_schur_oracle

E = BundleSymbol(FAMILY_C)
F = BundleSymbol(FAMILY_CPRIME)


def c(i, family=FAMILY_C):
    return CPolynomial.gen(family, i)


def test_complete_from_elementary():
    assert complete_from_elementary(0, E) == CPolynomial.one()
    assert complete_from_elementary(1, E) == c(1)
    assert complete_from_elementary(3, E) == c(1) ** 3 - 2 * c(1) * c(2) + c(3)
    assert complete_from_elementary(-1, E).is_zero()


def test_supersymmetric_series():
    # F of rank zero reduces to the complete classes
    zero_f = BundleSymbol(FAMILY_CPRIME, 0)
    for k in range(6):
        assert supersymmetric_s(k, E, zero_f) == complete_from_elementary(k, E)
    # E of rank zero gives signed Chern classes of F
    zero_e = BundleSymbol(FAMILY_C, 0)
    for k in range(1, 6):
        expected = c(k, FAMILY_CPRIME) if k % 2 == 0 else -c(k, FAMILY_CPRIME)
        assert supersymmetric_s(k, zero_e, F) == expected
    # degree-2 convolution
    h2 = complete_from_elementary(2, E)
    expected = h2 - c(1, FAMILY_CPRIME) * c(1) + c(2, FAMILY_CPRIME)
    assert supersymmetric_s(2, E, F) == expected
    with pytest.raises(ValueError):
        supersymmetric_s(1, E, BundleSymbol(FAMILY_C))


def test_schur_jt_examples():
    for d in range(1, 5):
        assert schur_jt(Partition([d]), E) == complete_from_elementary(d, E)
    assert schur_jt(Partition([1, 1]), E) == c(2)


def test_schur_dual_jt_examples():
    for i in range(1, 6):
        assert schur_dual_jt(Partition([1] * i)) == c(i)
    assert schur_dual_jt(Partition([2])) == c(1) ** 2 - c(2)
    assert schur_dual_jt(Partition([2, 1])) == c(1) * c(2) - c(3)
    assert schur_dual_jt(Partition()) == CPolynomial.one()


def test_two_determinantal_forms_agree_through_weight_8():
    for lam in partitions_up_to(8):
        assert schur_jt(lam, E) == schur_dual_jt(lam), lam


def test_supersymmetric_dual_form_cross_check():
    for lam in [Partition([2, 2]), Partition([3, 1]), Partition([2, 1, 1])]:
        assert schur_jt(lam, E, F) == schur_jt_dual_form(lam, E, F)


def test_to_schur_frozen_examples():
    i22 = c(2) ** 2 - c(1) * c(3)
    assert to_schur(i22).coefficients == {Partition([2, 2]): 1}
    a3 = c(1) ** 3 + 3 * c(1) * c(2) + 2 * c(3)
    assert to_schur(a3).coefficients == {
        Partition([3]): 1, Partition([2, 1]): 5, Partition([1, 1, 1]): 6}
    # confirmed against the independent monomial oracle
    assert to_schur_oracle(i22) == to_schur(i22)
    assert to_schur_oracle(a3) == to_schur(a3)


def test_to_schur_round_trip_on_basis():
    for d in range(7):
        for lam in enumerate_partitions(d):
            assert to_schur(schur_dual_jt(lam)).coefficients == {lam: 1}


def test_to_schur_bijection_per_degree():
    rng = random.Random(4242)
    for d in range(11):
        monos = monomials_of_degree(d, FAMILY_C)
        terms = {m: rng.randint(-6, 6) for m in monos}
        p = CPolynomial(terms)
        assert from_schur(to_schur(p)) == p
        expansion = Expansion(
            {lam: rng.randint(-4, 4) for lam in enumerate_partitions(d)}, degree=d)
        assert to_schur(from_schur(expansion)).coefficients == expansion.coefficients


def test_c1_power_coefficients_count_standard_tableaux():
    # c1^16 = s_1^16 = sum f^lam s_lam, f^lam by the hook-length formula
    expansion = to_schur(c(1) ** 16)
    for lam, coeff in expansion.items():
        parts = lam.parts
        hooks = [parts[i] - j + sum(1 for below in parts[i + 1:] if below > j)
                 for i in range(len(parts)) for j in range(parts[i])]
        assert coeff == factorial(16) // prod(hooks)
    # sum (f^lam)^2 = 16! leaves no room for a missing partition
    assert sum(coeff ** 2 for _, coeff in expansion.items()) == factorial(16)


def test_to_schur_errors():
    with pytest.raises(ValueError):
        to_schur(c(1) + c(2))  # inhomogeneous
    with pytest.raises(ValueError):
        to_schur(c(1) * c(1, FAMILY_CPRIME))  # mixed families
    with pytest.raises(ValueError):
        to_schur(c(2) ** 2, length_bound=2)  # e2^2 needs length-4 support
    # but the bound accepts genuinely short expansions
    assert to_schur(schur_dual_jt(Partition([2, 2])), length_bound=2) \
        .coefficients == {Partition([2, 2]): 1}


def test_to_schur_in_cprime_family():
    p = c(2, FAMILY_CPRIME) ** 2 - c(1, FAMILY_CPRIME) * c(3, FAMILY_CPRIME)
    assert to_schur(p).coefficients == {Partition([2, 2]): 1}


def test_lr_examples():
    assert lr_multiply(Partition([1]), Partition([1])).coefficients == {
        Partition([2]): 1, Partition([1, 1]): 1}
    assert lr_multiply(Partition([1]), Partition([2, 1])).coefficients == {
        Partition([3, 1]): 1, Partition([2, 2]): 1, Partition([2, 1, 1]): 1}
    square = lr_multiply(Partition([2, 1]), Partition([2, 1]))
    assert square.get(Partition([2, 2, 1, 1])) == 1
    assert square.coefficient_sum() == 8


def test_lr_dimension_consistency():
    # characters multiply: sum of c^nu_{lam,mu} dim(nu) over GL(N) equals
    # dim(lam) * dim(mu); counts come from tableau enumeration only
    from schurcalc.partitions import enumerate_ssyt

    lam = mu = Partition([2, 1])
    n = 6
    product = lr_multiply(lam, mu)
    total = sum(c * len(enumerate_ssyt(nu, n)) for nu, c in product.items())
    assert total == len(enumerate_ssyt(lam, n)) * len(enumerate_ssyt(mu, n))


def test_lr_oracle_basics():
    assert lr_oracle(Partition([3]), Partition()).coefficients == {Partition([3]): 1}
    assert lr_oracle(Partition([2, 1]), Partition([1])) == \
        lr_oracle(Partition([1]), Partition([2, 1]))
    with pytest.raises(ValueError):
        lr_oracle(Partition([5]), Partition([4]))


def test_lr_oracle_agreement_small():
    for s in range(6):
        for a in range(s + 1):
            for lam in enumerate_partitions(a):
                for mu in enumerate_partitions(s - a):
                    assert lr_multiply(lam, mu) == lr_oracle(lam, mu)


def test_hook_support_of_rank_specialized_schur():
    # s_lambda(E - F) with rank E = n, rank F = m is nonzero exactly on the
    # (n, m)-hook
    for n in range(4):
        for m in range(4):
            En = BundleSymbol(FAMILY_C, n)
            Fm = BundleSymbol(FAMILY_CPRIME, m)
            for lam in partitions_up_to(6):
                if lam.weight == 0:
                    continue
                vanishes = schur_jt(lam, En, Fm).is_zero()
                assert vanishes == (not hook_contains(lam, n, m)), (lam, n, m)


def test_super_split_examples():
    assert super_split(Partition([2, 1]), rank_F=0) == {
        (Partition([2, 1]), Partition()): 1}
    split = super_split(Partition([1]))
    assert split == {
        (Partition([1]), Partition()): 1,
        (Partition(), Partition([1])): 1,
    }


def test_super_split_beta_empty_slice_matches_to_schur():
    polys = [
        c(1) ** 3 + 3 * c(1) * c(2) + 2 * c(3),
        c(2) ** 2 - c(1) * c(3),
        2 * c(1) * c(2) ** 2 - 2 * c(1) ** 2 * c(3) + 2 * c(2) * c(3) - 2 * c(1) * c(4),
    ]
    for p in polys:
        split = super_split_poly(supersymmetrize(p, E, F))
        slice0 = {a: v for (a, b), v in split.items() if b.weight == 0}
        assert slice0 == to_schur(p).coefficients


def test_super_split_of_lambda_has_unit_diagonal():
    for lam in partitions_up_to(4):
        split = super_split(lam)
        assert split[(lam, Partition())] == 1


def test_elementary_super_matches_column_schur():
    for k in range(5):
        assert elementary_super(k, E) == schur_dual_jt(Partition([1] * k))


def test_expansion_container():
    x = Expansion({Partition([2]): 1, Partition([1, 1]): -2})
    assert x.degree == 2
    assert x.negatives() == [(Partition([1, 1]), -2)]
    assert not x.is_nonnegative()
    assert x.to_json() == [
        {"partition": [2], "coeff": "1"},
        {"partition": [1, 1], "coeff": "-2"},
    ]
    with pytest.raises(ValueError):
        Expansion({Partition([1]): 1, Partition([2]): 1})


def test_expansion_equality_compares_key_type_and_degree():
    s1 = Expansion({Partition([1]): 1})
    q1 = Expansion({StrictPartition([1]): 1}, key=StrictPartition)
    assert s1 == to_schur(c(1))
    assert s1 != q1
    assert q1.get([1]) == 1
    assert q1.to_json() == [{"strict_partition": [1], "coeff": "1"}]
    assert Expansion({}, degree=3) == Expansion({}, degree=3)
    assert Expansion({}, degree=3) != Expansion({}, degree=None)

import random
from collections import Counter
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurcalc.partitions import Partition, StrictPartition
from schurcalc.pieri import (
    FOLD_FACTOR_BUDGET,
    Expansion,
    OPEN,
    basis_key,
    built_step,
    column_peel,
    monomial_fold,
    pieri_build,
)
from schurcalc.positivity import VERDICT_POSITIVE, hook_contains, positivity_report
from schurcalc.pairing import enumerate_partitions, enumerate_strict_partitions
from schurcalc.rings import GrassmannianRing, LagrangianRing
from schurcalc.schubert import qtilde_pieri_step, row_peel
from schurcalc.polynomial import (
    FAMILY_C,
    FAMILY_CPRIME,
    CPolynomial,
)
from schurcalc.schur import (
    from_schur,
    lr_multiply,
    pair_product,
    schur_dual_jt,
    to_schur,
    vertical_strips,
)

from oracles import (
    BundleSymbol,
    complete_from_elementary,
    elementary_super,
    is_nonnegative,
    lr_oracle,
    monomials_of_degree,
    partitions_up_to,
    prefix_memo_fold,
    qtilde_pieri_rows,
    schur_jt,
    schur_jt_dual_form,
    schur_jt_h_form,
    super_split,
    super_split_poly,
    supersymmetric_s,
    supersymmetrize,
    to_schur_oracle,
    vertical_strip_rows,
)

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


def test_schur_dual_jt_matches_the_determinant_through_weight_10():
    # the dual Pieri rule read backwards against |c_{mu_i - i + j}|
    for lam in partitions_up_to(10):
        assert schur_dual_jt(lam) == schur_jt_dual_form(lam), lam
    for lam in partitions_up_to(6):
        assert schur_dual_jt(lam, FAMILY_CPRIME) == \
            schur_jt_dual_form(lam, BundleSymbol(FAMILY_CPRIME)), lam


def test_supersymmetric_classes_match_both_determinants():
    # substitution into s_lambda against the h-form and the dual-form
    # determinants, for every rank of E and F up to 3 and the unbounded one
    ranks = (None, 1, 2, 3)
    for rank_e in ranks:
        for rank_f in ranks:
            En = BundleSymbol(FAMILY_C, rank_e)
            Fm = BundleSymbol(FAMILY_CPRIME, rank_f)
            for k in range(7):
                column = Partition([1] * k)
                assert elementary_super(k, En, Fm) == schur_jt_h_form(column, En, Fm)
                assert elementary_super(k, En, Fm) == schur_jt_dual_form(column, En, Fm)
            for lam in partitions_up_to(6):
                value = schur_jt(lam, En, Fm)
                assert value == schur_jt_h_form(lam, En, Fm), (lam, rank_e, rank_f)
                assert value == schur_jt_dual_form(lam, En, Fm), (lam, rank_e, rank_f)
        for family in (FAMILY_C, FAMILY_CPRIME):
            En = BundleSymbol(family, rank_e)
            for lam in partitions_up_to(6):
                assert schur_jt(lam, En) == schur_jt_h_form(lam, En), (lam, En)
    with pytest.raises(ValueError):
        schur_jt(Partition([1]), E, BundleSymbol(FAMILY_C))
    with pytest.raises(ValueError):
        elementary_super(1, E, BundleSymbol(FAMILY_C))


def test_complete_class_closed_form_beyond_the_determinant():
    # h_n = sum over lam of n of (-1)^(n - l) l! / prod m_i! c_lam, with l the
    # length of lam and m_i its multiplicities; every partition appears
    for n in (20, 25):
        poly = schur_dual_jt(Partition([n]))
        lams = enumerate_partitions(n)
        assert len(poly.terms) == len(lams)
        for lam in lams:
            counts = Counter(lam.parts)
            expected = factorial(len(lam)) // prod(factorial(m) for m in counts.values())
            mono = tuple(((FAMILY_C, i), m) for i, m in counts.items())
            assert poly.coefficient(mono) == (-1) ** (n - len(lam)) * expected, lam


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


def test_lr_pieri_closed_forms_with_a_light_factor():
    # h_1 . h_40 and h_2 . h_30 by the Pieri rule, in both argument orders;
    # the first folded the p(40) = 37338 monomials of h_40 before the
    # lighter factor was the one expanded
    cases = (((1,), (40,), {(41,): 1, (40, 1): 1}),
             ((2,), (30,), {(32,): 1, (31, 1): 1, (30, 2): 1}))
    for lam, mu, expected in cases:
        expected = {Partition(nu): coeff for nu, coeff in expected.items()}
        for left, right in ((lam, mu), (mu, lam)):
            product = lr_multiply(Partition(left), Partition(right))
            assert (product.degree, product.coefficients) == (sum(lam) + sum(mu), expected)


def test_lr_dimension_consistency():
    # characters multiply: sum of c^nu_{lam,mu} dim(nu) over GL(N) equals
    # dim(lam) * dim(mu); counts come from tableau enumeration only
    from schurcalc.bundles import ssyt_weights

    lam = mu = Partition([2, 1])
    n = 6
    product = lr_multiply(lam, mu)
    total = sum(c * len(ssyt_weights(nu, n)) for nu, c in product.items())
    assert total == len(ssyt_weights(lam, n)) * len(ssyt_weights(mu, n))


def test_lr_dimension_identity_beyond_the_oracle():
    # f^nu counts standard tableaux; restricting s_lam . s_mu to the
    # symmetric group gives sum c^nu f^nu = C(|lam| + |mu|, |lam|) f^lam f^mu
    def hook_length_count(parts):
        hooks = [parts[i] - j + sum(1 for below in parts[i + 1:] if below > j)
                 for i in range(len(parts)) for j in range(parts[i])]
        return factorial(sum(parts)) // prod(hooks)

    for lam, mu in (((6, 4, 3, 2), (5, 3, 2)), ((5, 5), (5, 5))):
        product = lr_multiply(Partition(lam), Partition(mu))
        assert is_nonnegative(product)
        total = sum(coeff * hook_length_count(nu.parts) for nu, coeff in product.items())
        assert total == comb(sum(lam) + sum(mu), sum(lam)) * \
            hook_length_count(lam) * hook_length_count(mu)


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
    assert positivity_report(x, VERDICT_POSITIVE).witnesses == [(Partition([1, 1]), -2)]
    assert not is_nonnegative(x)
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


def test_expansion_keys_are_checked_once_and_shared():
    x, y = Expansion({(2, 1): 3}), Expansion({(2, 1): 5})
    (a,), (b,) = x.coefficients, y.coefficients
    assert a is b is basis_key(Partition, (2, 1))
    # the interned key has exactly the key type, whatever the index was
    q = Expansion({Partition([2, 1]): 1}, key=StrictPartition)
    assert [type(lam) for lam in q.coefficients] == [StrictPartition]
    s = Expansion({StrictPartition([3, 1]): 1})
    assert [type(lam) for lam in s.coefficients] == [Partition]
    # a bad index is rejected every time, with the constructor's message
    for _ in range(2):
        with pytest.raises(ValueError, match="parts must be strictly decreasing"):
            Expansion({(2, 2): 1}, key=StrictPartition)


def _fold_case(kind, shape, exponents, weight, picks):
    """A c-monomial with exponents {k: e}, the step, bound and product of
    two classes of one basis, and the classes picks[i] = (i, coeff) of
    weight on it, or None for the class 1."""
    if kind == "schur":
        step, bound, product = vertical_strips, OPEN, pair_product
        basis = enumerate_partitions(weight)
    else:
        ring = GrassmannianRing(*shape) if kind == "gr" else LagrangianRing(shape)
        step, bound, basis = ring.step, ring.bound, ring.basis(weight)

        def product(lam, mu):
            return ring.basis_product(lam, mu).coefficients.items()
    mono = tuple(((FAMILY_C, k), e) for k, e in sorted(exponents.items()) if e)
    classes = None if picks is None else \
        {tuple(basis[i % len(basis)]): coeff for i, coeff in picks} if basis else {}
    return mono, step, bound, product, classes


@st.composite
def fold_cases(draw):
    kind = draw(st.sampled_from(["schur", "gr", "lg"]))
    if kind == "schur":
        shape, rank, top = None, 4, 6
    elif kind == "gr":
        shape = draw(st.sampled_from([(r, n) for n in range(2, 8) for r in range(1, n)]))
        rank, top = shape[0], shape[0] * (shape[1] - shape[0])
    else:
        shape = draw(st.integers(1, 4))
        rank, top = shape, shape * (shape + 1) // 2
    exponents = draw(st.dictionaries(st.integers(1, rank), st.integers(0, 4), max_size=3))
    weight = draw(st.integers(0, top))
    picks = draw(st.none() | st.lists(st.tuples(st.integers(0, 50), st.integers(-3, 3)),
                                      max_size=4))
    return _fold_case(kind, shape, exponents, weight, picks)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fold_cases())
@example(_fold_case("gr", (1, 452), {1: 450}, 1, [(0, 2)]))
@example(_fold_case("lg", 3, {1: 2, 3: 1}, 2, [(0, 1), (1, -1)]))
def test_monomial_fold_is_the_prefix_memo_fold_times_its_classes(case):
    # one step per factor, on the classes given, against the build of the
    # monomial from 1 by its prefixes times those classes by basis products
    mono, step, bound, product, classes = case
    before = None if classes is None else dict(classes)
    expected = {}
    for lam, a in prefix_memo_fold(mono, step, bound).items():
        for mu, b in ({(): 1} if classes is None else classes).items():
            for kappa, m in product(lam, mu):
                expected[kappa] = expected.get(kappa, 0) + a * b * m
    folded = monomial_fold(mono, step, bound, classes)
    assert folded == {kappa: c for kappa, c in expected.items() if c}
    assert 0 not in folded.values()
    # the classes passed in are left as they were
    assert classes == before


def test_fold_budget_rejects_a_long_monomial_before_listing_its_factors():
    for e in (FOLD_FACTOR_BUDGET + 1, 10 ** 16):
        for fold in (to_schur, GrassmannianRing(1, e + 1).reduce):
            with pytest.raises(ValueError) as info:
                fold(c(1) ** e)
            assert str(info.value) == (f"a monomial of {e} factors exceeds the fold budget "
                                       f"of {FOLD_FACTOR_BUDGET} factors")
    # the budget counts the factors of one monomial, not its degree
    with pytest.raises(ValueError, match="a monomial of 5001 factors"):
        to_schur(c(1) ** 2500 * c(2) ** 2501)


def test_the_strip_step_equals_the_row_recursion():
    # every bound from open to smaller than lam, in both sides
    sides = (None, 0, 1, 2, 3, 4, 6)
    for lam in partitions_up_to(10):
        for k in range(6):
            for bound in [(rows, cols) for rows in sides for cols in sides]:
                strips = vertical_strip_rows(lam.parts, k, bound)
                assert vertical_strips(lam.parts, k, bound) == strips, (lam, k, bound)


def test_the_qtilde_step_equals_the_row_recursion():
    # every cap from one below lam_1, where no mu fits, to n
    for n in range(10):
        for lam in (tuple(lam) for d in range(n * (n + 1) // 2 + 1)
                    for lam in enumerate_strict_partitions(d, n)):
            for k in range(n + 2):
                for cap in range(max(lam, default=0) - 1, n + 1):
                    assert sorted(qtilde_pieri_step(lam, k, (cap,))) == \
                        sorted(qtilde_pieri_rows(lam, k, (cap,))), (lam, k, cap)


def test_a_fold_fills_no_step_memo_and_a_build_memoizes_its_steps():
    memos = (pieri_build, built_step, column_peel)
    for memo in memos:
        memo.cache_clear()
    to_schur(c(1) ** 6 * c(2))
    GrassmannianRing(2, 8).reduce(c(1) ** 12)
    # the Q-tilde step keeps no memo, so an LG fold fills none at all
    LagrangianRing(4).reduce(c(1) ** 2)
    assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]
    lr_multiply(Partition([2, 1]), Partition([3, 2]))
    assert built_step.cache_info().currsize > 0
    # a build of Q_(2,1) peels it as c_2 . Q_1 and memoizes that step in
    # built_step, where row_peel then finds it
    for memo in memos:
        memo.cache_clear()
    LagrangianRing(4).build_product(StrictPartition([3, 1]), StrictPartition([2, 1]))
    steps = built_step.cache_info().currsize
    assert steps > 0
    assert row_peel((2, 1), (4,)) == (2, (1,), qtilde_pieri_step((1,), 2, (4,)))
    assert built_step.cache_info().currsize == steps


def test_the_strip_step_walks_blocks_of_equal_parts():
    # far past the recursion limit in rows
    column = (1,) * 2999
    assert vertical_strips(column, 1, (3000, 1)) == ((column + (1,), 1),)
    assert vertical_strips(column, 2, (None, None)) == \
        (((1,) * 3001, 1), ((2,) + (1,) * 2999, 1), ((2, 2) + (1,) * 2997, 1))
    assert vertical_strips((3,) * 1500 + (1,) * 1500, 1, (3000, 3)) == \
        (((3,) * 1500 + (2,) + (1,) * 1499, 1),)

import pytest

from schurcalc.bundles import MAX_BUNDLE_ROOTS, schur_bundle_class, ssyt_weights
from schurcalc.partitions import Partition
from schurcalc.polynomial import FAMILY_C, CPolynomial
from schurcalc.positivity import (
    CLASSICAL_THOM_TABLE,
    VERDICT_NOT_NONNEGATIVE,
    VERDICT_POSITIVE,
    VERDICT_ZERO,
    certify,
    hook_contains,
    minimal_hook_rank,
    verify_thom_table,
)
from schurcalc.pairing import enumerate_partitions
from schurcalc.schur import schur_dual_jt

from oracles import (I22_GERM, is_nonnegative, morin_germ, morin_thom_polynomial, partitions_up_to,
                     restriction, schur_bundle_oracle, to_schur_oracle)


def c(i):
    return CPolynomial.gen(FAMILY_C, i)


def test_certify_examples():
    report = certify(c(1) ** 2 - c(2))
    assert report.verdict == VERDICT_POSITIVE
    assert report.expansion.coefficients == {Partition([2]): 1}

    report = certify(c(2) - c(1) ** 2)
    assert report.verdict == VERDICT_NOT_NONNEGATIVE
    assert report.witnesses == [(Partition([2]), -1)]

    assert certify(CPolynomial.zero()).verdict == VERDICT_ZERO


def test_certify_schur_basis_elements():
    for lam in partitions_up_to(6):
        if lam.weight == 0:
            continue
        report = certify(schur_dual_jt(lam))
        assert report.verdict == VERDICT_POSITIVE
        assert report.expansion.coefficients == {lam: 1}


def test_corpus_entries_are_as_printed():
    names = [e.name for e in CLASSICAL_THOM_TABLE]
    assert names == ["A_3", "A_4", "A_5", "I_2,2", "I_2,3", "I_2,4"]
    for entry in CLASSICAL_THOM_TABLE:
        assert entry.polynomial.homogeneous_degree() == entry.codimension


def test_corpus_certifies_positive():
    reports = verify_thom_table()
    for entry, report in zip(CLASSICAL_THOM_TABLE, reports):
        assert report.verdict == VERDICT_POSITIVE, entry.name
        assert report.expansion.coefficient_sum() > 0
    by_name = {r.name: r for r in reports}
    assert by_name["I_2,2"].expansion.coefficients == {Partition([2, 2]): 1}
    assert by_name["A_3"].expansion.coefficients == {
        Partition([3]): 1, Partition([2, 1]): 5, Partition([1, 1, 1]): 6}


def test_corpus_expansions_match_oracle():
    for entry, report in zip(CLASSICAL_THOM_TABLE, verify_thom_table()):
        assert to_schur_oracle(entry.polynomial) == report.expansion, entry.name


def test_the_table_certifies_each_entry_as_certify_does_its_polynomial():
    # verify_thom_table evaluates each expression on the Schur basis, as the
    # certify command does; certify folds the entry's c-polynomial
    for entry, report in zip(CLASSICAL_THOM_TABLE, verify_thom_table()):
        by_polynomial = certify(entry.polynomial, name=entry.name)
        assert (report.name, report.verdict, report.expansion, report.witnesses) == \
            (by_polynomial.name, by_polynomial.verdict, by_polynomial.expansion,
             by_polynomial.witnesses)
        assert report.polynomial is None


def test_the_morin_classes_solve_rimanyis_restriction_equations():
    # the unique solutions on the c-monomials of each degree: Porteous's c1,
    # Ronga's c1^2 + c2, and the table's A_3 and A_4
    table = {entry.name: entry.polynomial for entry in CLASSICAL_THOM_TABLE}
    assert morin_thom_polynomial(1) == c(1)
    assert morin_thom_polynomial(2) == c(1) ** 2 + c(2)
    assert morin_thom_polynomial(3) == table["A_3"]
    assert morin_thom_polynomial(4) == table["A_4"]
    # the printed I_2,2 vanishes on every Morin class of codimension at most
    # its own, and at its own germ it is alpha beta (2 alpha - beta) (2 beta - alpha)
    for j in range(1, 5):
        assert restriction(table["I_2,2"], morin_germ(j)) == {}, j
    assert restriction(table["I_2,2"], I22_GERM) == {(3, 1): -2, (2, 2): 5, (1, 3): -2}


def test_hook_rank_diagnostic():
    # reported, not asserted: the minimal symmetric hook is a consistency
    # readout for the equal-dimension corpus
    for report in verify_thom_table():
        k = minimal_hook_rank(report.expansion)
        assert k >= 1
        assert all(hook_contains(lam, k, k) for lam, _ in report.expansion.items())


def test_schur_bundle_examples():
    assert schur_bundle_class(Partition([2]), Partition([1]), 2).coefficients == {
        Partition([1]): 3}
    assert schur_bundle_class(Partition([2]), Partition([1, 1]), 2).coefficients == {
        Partition([2]): 2, Partition([1, 1]): 6}
    for mu in [Partition([1]), Partition([2]), Partition([2, 1])]:
        for n in (2, 3):
            expected = {mu: 1} if len(mu) <= n else {}
            assert schur_bundle_class(Partition([1]), mu, n).coefficients == expected


def test_schur_bundle_nonnegative_exhaustive():
    functors = [Partition([1]), Partition([2]), Partition([1, 1])]
    for lam in functors:
        for n in (1, 2, 3):
            for w in (1, 2, 3):
                for mu in enumerate_partitions(w):
                    result = schur_bundle_class(lam, mu, n)
                    assert is_nonnegative(result), (lam, mu, n)


def test_schur_bundle_work_bounds():
    with pytest.raises(ValueError):
        schur_bundle_class(Partition([2]), Partition([1]), 10)  # 55 roots
    with pytest.raises(ValueError):
        schur_bundle_class(Partition([1]), Partition([5]), 2)  # |mu| > 4


def test_schur_bundle_class_agrees_with_the_n_variable_oracle():
    # the determinant twist, the root count from Weyl's formula and the
    # min(n, |mu|) variables against tableau enumeration in all n variables
    cases = 0
    for w in range(5):
        for lam in enumerate_partitions(w):
            for n in range(6):
                if len(ssyt_weights(lam, n)) > MAX_BUNDLE_ROOTS:
                    continue
                for d in range(5):
                    for mu in enumerate_partitions(d):
                        assert schur_bundle_class(lam, mu, n) == \
                            schur_bundle_oracle(lam, mu, n), (lam, mu, n)
                        cases += 1
    assert cases == 768


def test_schur_bundle_root_count_is_checked_before_any_tableau():
    # the count is Weyl's dimension; when rank and |lam| both exceed the
    # bound the dimension is at least max(rank, |lam| + 1) and is not computed
    for lam, n, shown in (([1], 21, "21"), ([2], 10, "55"), ([10, 10], 20, "23896002230100"),
                          ([1], 10 ** 8, "100000000"), ([10 ** 6], 2, "1000001"),
                          ([1] * 21, 22, "more than 20"), ([21], 21, "more than 20")):
        with pytest.raises(ValueError, match=f"^{shown} roots exceed the work bound 20$"):
            schur_bundle_class(Partition(lam), Partition([1]), n)
    # the root count comes before |mu|
    with pytest.raises(ValueError, match="^55 roots"):
        schur_bundle_class(Partition([2]), Partition([5]), 10)
    # det(E)^k has one root k(x_1 + ... + x_n), read in |mu| variables
    for lam, n in (([1] * 30, 30), ([1] * 1200, 1200), ([3] * 50, 50)):
        k = lam[0]
        assert schur_bundle_class(Partition(lam), Partition([2]), n).coefficients == \
            {Partition([2]): k * k, Partition([1, 1]): k * k}
    assert schur_bundle_class(Partition(), Partition([1]), 10 ** 9).coefficients == {}
    # more rows than the rank: S^lam(E) = 0, whatever the length of the rows
    for lam in ([1, 1], [10 ** 9, 1]):
        assert schur_bundle_class(Partition(lam), Partition([1]), 1).coefficients == {}


def test_report_json_shape():
    report = certify(c(2) - c(1) ** 2, name="synthetic")
    data = report.to_json()
    assert data["name"] == "synthetic"
    assert data["verdict"] == VERDICT_NOT_NONNEGATIVE
    assert data["witnesses"] == [{"partition": [2], "coeff": "-1"}]


def test_schur_bundle_rejects_negative_rank():
    with pytest.raises(ValueError, match="rank"):
        schur_bundle_class(Partition([2]), Partition([1]), -1)

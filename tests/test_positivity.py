import pytest

from schurcalc.partitions import Partition, enumerate_partitions, hook_contains, partitions_up_to
from schurcalc.polynomial import FAMILY_C, CPolynomial
from schurcalc.positivity import (
    CLASSICAL_THOM_TABLE,
    VERDICT_NOT_NONNEGATIVE,
    VERDICT_POSITIVE,
    VERDICT_ZERO,
    certify,
    minimal_hook_rank,
    schur_bundle_class,
    verify_thom_table,
)
from schurcalc.schur import schur_dual_jt

from oracles import to_schur_oracle


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
    for entry in CLASSICAL_THOM_TABLE:
        expansion = certify(entry.polynomial).expansion
        assert to_schur_oracle(entry.polynomial) == expansion, entry.name


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
                    assert result.is_nonnegative(), (lam, mu, n)


def test_schur_bundle_work_bounds():
    with pytest.raises(ValueError):
        schur_bundle_class(Partition([2]), Partition([1]), 10)  # 55 roots
    with pytest.raises(ValueError):
        schur_bundle_class(Partition([1]), Partition([5]), 2)  # |mu| > 4


def test_report_json_shape():
    report = certify(c(2) - c(1) ** 2, name="synthetic")
    data = report.to_json()
    assert data["name"] == "synthetic"
    assert data["verdict"] == VERDICT_NOT_NONNEGATIVE
    assert data["witnesses"] == [{"partition": [2], "coeff": "-1"}]


def test_schur_bundle_rejects_negative_rank():
    with pytest.raises(ValueError, match="rank"):
        schur_bundle_class(Partition([2]), Partition([1]), -1)

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurcalc.legendrian import (
    LEGENDRIAN_RANK,
    LEGENDRIAN_TABLE,
    LegendrianClass,
    lagrangian_part,
    legendrian_parse,
    legendrian_positivity,
    verify_lagrangian_table,
    verify_legendrian_table,
)
from schurcalc.partitions import StrictPartition
from schurcalc.positivity import PositivityReport, positivity_report

from oracles import legendrian_parse_by_vpolynomials


def key(parts, a=0, b=0):
    return (StrictPartition(parts), a, b)


def test_parse_examples():
    assert legendrian_parse("q[1]", 2).coefficients == {key([1]): 1}
    parsed = legendrian_parse("3*q[2] + v2*q[1]", 2)
    assert parsed.coefficients == {key([2]): 3, key([1], 0, 1): 1}
    assert parsed.degree == 2
    assert legendrian_parse("q[3,2,1]", 4).coefficients == {key([3, 2, 1]): 1}


def test_inhomogeneous_message_is_capped():
    with pytest.raises(ValueError, match=r"degrees \[1, 2\]$"):
        legendrian_parse("v1 + v1^2", 2)
    with pytest.raises(ValueError, match=r"degrees \[1, 2, 3, \.\.\., 9\], 9 in all$"):
        legendrian_parse(" + ".join(f"v1^{a}" for a in range(1, 10)), 2)


def test_parse_errors():
    with pytest.raises(ValueError):
        legendrian_parse("q[1] + q[2]", 2)  # inhomogeneous
    with pytest.raises(ValueError):
        legendrian_parse("q[1]*q[2]", 3)  # no product of basis classes
    with pytest.raises(ValueError):
        legendrian_parse("s[1]", 2)  # wrong basis kind
    with pytest.raises(ValueError):
        legendrian_parse("c1", 2)  # c-generators are not Legendrian atoms
    with pytest.raises(ValueError):
        legendrian_parse("q[3]", 2)  # outside the staircase
    with pytest.raises(ValueError):
        legendrian_parse("q[2,2]", 3)  # non-strict index (grammar level)


def test_lagrangian_part_examples():
    table = {entry.name: entry for entry in LEGENDRIAN_TABLE}
    a4 = legendrian_parse(table["A_4"].expression, LEGENDRIAN_RANK)
    assert lagrangian_part(a4).coefficients == {
        StrictPartition([3]): 12, StrictPartition([2, 1]): 3}
    a2 = legendrian_parse(table["A_2"].expression, LEGENDRIAN_RANK)
    assert lagrangian_part(a2).coefficients == {StrictPartition([1]): 1}
    d5 = legendrian_parse(table["D_5"].expression, LEGENDRIAN_RANK)
    assert lagrangian_part(d5).coefficients == {StrictPartition([3, 1]): 6}


def test_positivity_corpus_and_synthetic_negative():
    for report in verify_legendrian_table():
        assert isinstance(report, PositivityReport)
        assert (report.verdict, report.nonnegative) == ("NONNEGATIVE", True), report.name
    bad = legendrian_positivity(legendrian_parse("q[2] - v1*q[1]", 2))
    assert (bad.verdict, bad.nonnegative) == ("NOT_NONNEGATIVE", False)
    assert bad.witnesses == [(key([1], 1, 0), -1)]
    assert bad.to_json()["witnesses"] == [
        {"strict_partition": [1], "a": 1, "b": 0, "coeff": "-1"}]


def test_degree_bookkeeping_matches_codimension():
    for entry in LEGENDRIAN_TABLE:
        parsed = legendrian_parse(entry.expression, LEGENDRIAN_RANK)
        degrees = {mu.weight + a + b for (mu, a, b) in parsed.coefficients}
        assert degrees == {entry.codimension}, entry.name
        assert parsed.degree == entry.codimension


def test_lagrangian_slice_matches_bold_text_byte_for_byte():
    for entry in LEGENDRIAN_TABLE:
        full = legendrian_parse(entry.expression, LEGENDRIAN_RANK)
        slice_json = json.dumps(lagrangian_part(full).to_json())
        bold = legendrian_parse(entry.lagrangian_expression, LEGENDRIAN_RANK)
        bold_json = json.dumps(lagrangian_part(bold).to_json())
        assert slice_json == bold_json, entry.name


def test_lagrangian_table_nonnegative():
    for report in verify_lagrangian_table():
        assert isinstance(report, PositivityReport)
        assert (report.verdict, report.nonnegative) == ("NONNEGATIVE", True), report.name
        assert not report.expansion.is_zero()


def test_negative_lagrangian_slice_witnesses():
    part = lagrangian_part(legendrian_parse("3*q[2,1] - q[3] + v1*q[2]", 3))
    report = positivity_report(part, "NONNEGATIVE", name="synthetic")
    assert (report.verdict, report.nonnegative) == ("NOT_NONNEGATIVE", False)
    assert report.to_json() == {
        "name": "synthetic", "verdict": "NOT_NONNEGATIVE",
        "expansion": [{"strict_partition": [3], "coeff": "-1"},
                      {"strict_partition": [2, 1], "coeff": "3"}],
        "witnesses": [{"strict_partition": [3], "coeff": "-1"}]}


def test_class_json_shape():
    parsed = legendrian_parse("3*q[2] + v2*q[1]", 2)
    assert parsed.to_json() == [
        {"strict_partition": [2], "a": 0, "b": 0, "coeff": "3"},
        {"strict_partition": [1], "a": 0, "b": 1, "coeff": "1"},
    ]


def test_scalar_v_powers_allowed():
    parsed = legendrian_parse("(v1 + v2)^2*q[1]", 2)
    assert parsed.coefficients == {
        key([1], 2, 0): 1, key([1], 1, 1): 2, key([1], 0, 2): 1}


def test_class_equality_compares_rank_and_degree():
    parsed = legendrian_parse("q[1]", 2)
    assert parsed == legendrian_parse("q[1]", 2)
    assert parsed != legendrian_parse("q[1]", 3)
    assert parsed != LegendrianClass(dict(parsed.coefficients), n=2, degree=None)


# -- the evaluator on basis keys equals the one through v-polynomials ---------

# q indices up to 5 against staircases of 1 to 4, so some fall outside; c1
# and s[1] are atoms that no Legendrian expression may hold; v1 and v2 are
# drawn twice as often as the other atoms
LEGENDRIAN_ATOMS = ["0", "1", "2", "7", "v1", "v2", "v1", "v2", "q[1]", "q[2]", "q[2,1]",
                    "q[3]", "q[3,1]", "q[5]", "q[5,2]", "c1", "s[1]"]


@st.composite
def legendrian_text(draw, depth=0):
    kinds = ["atom"] if depth == 3 else ["atom", "atom", "sum", "product", "power", "cancel"]
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(st.sampled_from(LEGENDRIAN_ATOMS))
    first = draw(legendrian_text(depth + 1))
    if kind == "power":
        return f"({first})^{draw(st.integers(0, 3))}"
    second = draw(legendrian_text(depth + 1))
    if kind == "sum":
        return f"{first} {draw(st.sampled_from(['+', '-']))} {second}"
    if kind == "product":
        return f"({first})*({second})"
    # a term that is added and taken away again
    return f"{first} + ({second}) - ({second})"


def _parse_outcome(parse, text, n):
    try:
        parsed = parse(text, n)
    except ValueError as exc:
        return type(exc), str(exc)
    return parsed, parsed.to_json()


@settings(derandomize=True, deadline=None, max_examples=400)
@given(legendrian_text(), st.integers(1, 4))
@example("(q[1]-q[1])*q[2]", 2)
@example("0^0", 1)
@example("(q[1]-q[1])^0 + (q[2]-q[2])*(q[1]-q[1])", 1)
# of two classes outside the staircase, the one named is the one whose
# coefficients have been nonzero since earlier in the evaluation
@example("v1*q[5] + v1*q[3,1] + v2*q[5] - v1*q[5]", 2)
@example("q[5] - q[5] + q[3,1] + q[5]", 2)
def test_basis_key_evaluation_equals_the_v_polynomial_path(text, n):
    assert _parse_outcome(legendrian_parse, text, n) == \
        _parse_outcome(legendrian_parse_by_vpolynomials, text, n), text

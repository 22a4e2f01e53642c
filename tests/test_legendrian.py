import json

import pytest

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
        assert report.nonnegative, report.name
    bad = legendrian_positivity(legendrian_parse("q[2] - v1*q[1]", 2))
    assert not bad.nonnegative
    assert bad.witnesses == [(key([1], 1, 0), -1)]


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
    for name, part, nonneg in verify_lagrangian_table():
        assert nonneg, name
        assert not part.is_zero()


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

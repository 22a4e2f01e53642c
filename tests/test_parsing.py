import pytest

from schurcalc.legendrian import LEGENDRIAN_TABLE
from schurcalc.parsing import (
    MAX_NESTING,
    Basis,
    Gen,
    Num,
    ParseError,
    Pow,
    Prod,
    Sum,
    evaluate_text,
    parse,
)
from schurcalc.partitions import Partition
from schurcalc.polynomial import FAMILY_C, FAMILY_CPRIME, CPolynomial
from schurcalc.positivity import CLASSICAL_THOM_TABLE
from schurcalc.qtilde import qtilde
from schurcalc.schur import schur_dual_jt
from schurcalc.schureval import expression_reading

from oracles import to_text


def c(i):
    return CPolynomial.gen(FAMILY_C, i)


def test_grammar_examples():
    a3 = evaluate_text("c1^3 + 3*c1*c2 + 2*c3")
    assert a3 == c(1) ** 3 + 3 * c(1) * c(2) + 2 * c(3)
    assert evaluate_text("s[2,1]") == schur_dual_jt(Partition([2, 1]))
    assert evaluate_text("q[2,1]") == qtilde(Partition([2, 1]))
    assert evaluate_text("c'2") == CPolynomial.gen(FAMILY_CPRIME, 2)
    assert evaluate_text("(c1 + c2)^2") == (c(1) + c(2)) ** 2
    assert evaluate_text("v1*v2").homogeneous_degree() == 2


def test_no_unary_minus():
    with pytest.raises(ParseError) as err:
        parse("c2 - - c1")
    assert err.value.position == 5


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2c1")
    with pytest.raises(ParseError):
        parse("3 q[2]")


def test_index_monotonicity_checks():
    with pytest.raises(ParseError):
        parse("s[1,2]")
    with pytest.raises(ParseError):
        parse("q[2,2]")
    # weakly decreasing is fine for s
    assert parse("s[2,2]") == Basis("s", (2, 2))


def test_misc_errors_carry_positions():
    for text, pos in [("", 0), ("c", 1), ("v3", 1), ("s2", 1), ("(c1", 3)]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == pos


def test_ast_shapes():
    assert parse("3*c1*c2") == Prod((Num(3), Gen(FAMILY_C, 1), Gen(FAMILY_C, 2)))
    assert parse("c1^3") == Pow(Gen(FAMILY_C, 1), 3)
    tree = parse("c1 + c2 - c3")
    assert isinstance(tree, Sum) and len(tree.rest) == 2
    assert tree.rest[1][0] == "-"


def test_print_parse_round_trip_on_corpus():
    expressions = [e.expression for e in CLASSICAL_THOM_TABLE]
    expressions += [e.expression for e in LEGENDRIAN_TABLE]
    expressions += [e.lagrangian_expression for e in LEGENDRIAN_TABLE]
    for text in expressions:
        ast = parse(text)
        assert parse(to_text(ast)) == ast


def test_round_trip_preserves_value():
    for text in ["(c1 + 2*c2)^2*c1", "s[3,1] - q[2,1]*c1", "v1^2*v2 + 4*v2^3"]:
        ast = parse(text)
        assert evaluate_text(to_text(ast)) == evaluate_text(text)


def test_whitespace_insignificant():
    assert parse(" c1 ^ 2 +  c2 ") == parse("c1^2+c2")


def test_nesting_limit():
    deepest = "(" * MAX_NESTING + "c1" + ")" * MAX_NESTING
    assert evaluate_text(deepest) == c(1)
    with pytest.raises(ParseError, match="nested deeper"):
        parse("(" + deepest + ")")
    with pytest.raises(ParseError, match="nested deeper"):
        parse("(" * 3000 + "c1" + ")" * 3000)


def test_expression_degree():
    # the degrees the syntax tree shows: lo == hi is the degree of every
    # term of the value, which a ring command reads before evaluation
    known = {"7": 0, "c3": 3, "s[2,1]": 3, "q[3,1]": 4, "c1^4 - c2*c1^2": 4,
             "c1^0": 0, "0*s[25]": 25, "(c1^2 + c2)*s[1]*q[2]": 5, "c1^2 - c1^2": 2,
             "c'1": 1, "v1*q[1]": 2, "v2^0": 0, "c1*c'1^2": 3,
             # any base to the power 0 is 1, of degree 0
             "(c1 + 1)^0": 0, "2*(c1 + c2)^0*c3": 3}
    spread = {"c1 + c2": (1, 2), "1 + c1": (0, 1), "2*(c1 + c2 - c2)^3": (3, 6)}
    for text, degree in known.items():
        reading = expression_reading(parse(text))
        assert (reading.lo, reading.hi) == (degree, degree), text
    for text, degrees in spread.items():
        reading = expression_reading(parse(text))
        assert (reading.lo, reading.hi) == degrees, text
    # a known degree is the degree of every term of the value
    for text in ["c1^4 - c2*c1^2", "(c1^2 + c2)*s[1]*q[2]", "3*s[3,1] - q[2,1]*c1",
                 "c1*c'1^2 - c'3", "v1*v2 + v1^2"]:
        value = evaluate_text(text)
        assert value.homogeneous_degree() == expression_reading(parse(text)).hi, text


def test_a_literal_zero_drops_its_term_from_the_reading():
    # 0 is the zero value, and so are a product with a zero factor and a
    # positive power of zero; a sum reads its degrees and families from its
    # nonzero terms, or from all when each is zero, and peak from them all
    cases = {"c6*c5*0 + s[3]": (3, 3, 11, {"c"}), "0 - c2": (2, 2, 2, {"c"}),
             "c'1*0 + c1": (1, 1, 1, {"c"}), "(v1 + c'2)*0^2 + q[2,1]": (3, 3, 3, {"c"}),
             "c1^41*0 + c1": (1, 1, 41, {"c"}), "(c1*0)^0 + c2": (0, 2, 2, {"c"}),
             "0^0 + c'1": (0, 1, 1, {"c'"}), "0*c1 + 0*c'2": (1, 2, 2, {"c", "c'"}),
             "0*s[25]": (25, 25, 25, {"c"}), "0": (0, 0, 0, set())}
    for text, (lo, hi, peak, families) in cases.items():
        reading = expression_reading(parse(text))
        assert (reading.lo, reading.hi, reading.peak, reading.families) == \
            (lo, hi, peak, families), text
    zero = {"0": True, "2*0": True, "0^3": True, "0^0": False, "0*c1 + 0": True,
            "0*c1 + c2": False, "c1 - c1": False}
    for text, is_zero in zero.items():
        assert expression_reading(parse(text)).zero is is_zero, text


def test_basis_atoms_are_held_to_the_output_budget():
    # weight 40 is within p(40) terms; a larger atom is rejected before its
    # polynomial is built, whatever the degree of the whole
    assert evaluate_text("q[40]") == c(40)
    for text in ("s[41]", "q[400]", "0*s[400]", "c1 + s[20,20,1]"):
        with pytest.raises(ValueError, match="exceeds the output budget"):
            evaluate_text(text)

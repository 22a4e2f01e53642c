import copy
import pickle

import pytest

from schurcalc.legendrian import LegendrianClass, LegendrianTableEntry
from schurcalc.parsing import Basis, Gen, Num, Pow, Prod, Sum, parse
from schurcalc.polynomial import CPolynomial
from schurcalc.positivity import PositivityReport, ThomTableEntry
from schurcalc.schur import Expansion

from oracles import BundleSymbol, to_text

C1 = Gen("c", 1)

# (class, fields, fields that differ in one place, frozen)
RECORDS = [
    (Num, (3,), (4,), True),
    (Gen, ("c", 2), ("c", 3), True),
    (Basis, ("s", (2, 1)), ("q", (2, 1)), True),
    (Pow, (C1, 2), (C1, 3), True),
    (Prod, ((Num(2), C1),), ((Num(3), C1),), True),
    (Sum, (Num(1), (("+", C1),)), (Num(1), (("-", C1),)), True),
    (BundleSymbol, ("c", 2), ("c'", 2), True),
    (ThomTableEntry, ("A_3", "c1^3", 3), ("A_3", "c1^3", 4), True),
    (LegendrianTableEntry, ("A_2", "q[1]", "q[1]", 1), ("A_2", "q[1]", "q[1]", 2), True),
    (PositivityReport, (CPolynomial.zero(), Expansion({}, degree=None), "ZERO"),
     (CPolynomial.one(), Expansion({}, degree=None), "ZERO"), False),
    (LegendrianClass, ({}, 2, None), ({}, 3, None), False),
]


@pytest.mark.parametrize("cls, fields, other, frozen", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_record_semantics(cls, fields, other, frozen):
    x = cls(*fields)
    assert x == cls(*fields)
    assert not x != cls(*fields)
    assert x != cls(*other)
    assert x != fields
    assert all(x != y for y in (c(*f) for c, f, _, _ in RECORDS if c is not cls))
    name = x.__slots__[0]
    assert cls(**dict(zip(x.__slots__, fields))) == x
    assert repr(x).startswith(f"{cls.__name__}({name}={getattr(x, name)!r}")
    assert copy.copy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x
    if frozen:
        assert hash(x) == hash(cls(*fields))
        assert {x: 1}[cls(*fields)] == 1
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    else:
        with pytest.raises(TypeError):
            hash(x)
        for field in x.__slots__:
            setattr(x, field, getattr(cls(*other), field))
        assert x == cls(*other)


def test_same_fields_different_type_are_unequal():
    assert Num(3) != Prod(3)
    assert Gen("c", 2) != Pow("c", 2)


def test_defaults_and_repr():
    assert Gen("v1") == Gen("v1", 0)
    assert BundleSymbol() == BundleSymbol("c", None)
    first = PositivityReport(CPolynomial.zero(), None, "ZERO")
    second = PositivityReport(CPolynomial.zero(), None, "ZERO")
    assert first.witnesses == [] and first.witnesses is not second.witnesses
    assert first.name is None
    assert repr(Pow(C1, 2)) == "Pow(base=Gen(family='c', index=1), exponent=2)"
    assert repr(BundleSymbol(rank=3)) == "BundleSymbol(family='c', rank=3)"
    with pytest.raises(TypeError):
        Num()
    with pytest.raises(TypeError):
        Num(1, 2)
    with pytest.raises(TypeError):
        Num(1, value=1)


def test_bundle_symbol_validation():
    with pytest.raises(ValueError, match=r"^bundle family must be c or c', got 'v1'$"):
        BundleSymbol("v1")
    with pytest.raises(ValueError, match=r"^rank must be nonnegative$"):
        BundleSymbol(rank=-1)


@pytest.mark.parametrize("expr", [
    Num(7),
    Gen("v2"),
    Pow(Sum(C1, (("-", Gen("c'", 2)),)), 3),
    Prod((Num(2), Basis("s", (3, 1)), Pow(Basis("q", (2,)), 2))),
    Sum(Prod((Num(3), Basis("q", (2,)))), (("+", Prod((Gen("v2"), Basis("q", (1,))))),)),
])
def test_print_parse_round_trip(expr):
    assert parse(to_text(expr)) == expr

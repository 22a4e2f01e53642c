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

# (class, fields, fields that differ in one place, hashable)
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
    # the reports hold an Expansion and a dict, so they have no hash
    (PositivityReport, (CPolynomial.zero(), Expansion({}, degree=None), "ZERO"),
     (CPolynomial.one(), Expansion({}, degree=None), "ZERO"), False),
    (LegendrianClass, ({}, 2, None), ({}, 3, None), False),
]
NODES = (Num, Gen, Basis, Pow, Prod, Sum)


@pytest.mark.parametrize("cls, fields, other, hashable", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_record_semantics(cls, fields, other, hashable):
    x = cls(*fields)
    assert x == cls(*fields)
    assert not x != cls(*fields)
    assert x != cls(*other)
    if cls in NODES:  # well-formed nodes of different types share no fields
        assert all(x != c(*f) for c, f, _, _ in RECORDS if c in NODES and c is not cls)
    name = x._fields[0]
    assert cls(**dict(zip(x._fields, fields))) == x
    assert repr(x).startswith(f"{cls.__name__}({name}={getattr(x, name)!r}")
    for twin in (copy.copy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is cls and twin == x
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.unknown = None
    if hashable:
        assert hash(x) == hash(cls(*fields)) == hash(tuple(fields))
        assert {x: 1}[cls(*fields)] == 1
    else:
        with pytest.raises(TypeError):
            hash(x)


def test_defaults_and_repr():
    assert Gen("v1") == Gen("v1", 0)
    assert BundleSymbol() == BundleSymbol("c", None)
    report = PositivityReport(CPolynomial.zero(), None, "ZERO")
    assert report.witnesses == () and report.name is None
    assert repr(Pow(C1, 2)) == "Pow(base=Gen(family='c', index=1), exponent=2)"
    assert repr(BundleSymbol(rank=3)) == "BundleSymbol(family='c', rank=3)"
    assert repr(PositivityReport(None, None, "ZERO")) == \
        "PositivityReport(polynomial=None, expansion=None, verdict='ZERO', witnesses=(), name=None)"
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
    # a node equals the plain tuple of its fields, so the repr checks the types
    parsed = parse(to_text(expr))
    assert parsed == expr and repr(parsed) == repr(expr)

"""Legendrian characteristic classes in the basis {Y^mu v1^a v2^b}.

A LegendrianClass is an expansion container: the basis classes are opaque
(no product is defined on them), v1 and v2 are honest degree-1 generators,
and the Lagrangian part is the v -> 0 slice.  An expression evaluates
straight to integer coefficients on the keys (mu, a, b) of that basis, with
the empty mu for the terms that hold no basis class, so no c-polynomial or
Schur class is built.  The built-in corpus stores the published table
entries verbatim as expression strings.
"""

from collections import namedtuple

from .partitions import FAMILY_V1, FAMILY_V2, StrictPartition, degree_list, number_text
from .positivity import VERDICT_NONNEGATIVE, PositivityReport, positivity_report
from .pieri import Expansion
from . import parsing


class LegendrianClass(namedtuple("LegendrianClass", "coefficients n degree")):
    """Integer expansion over (strict partition, v1-exponent, v2-exponent):
    coefficients maps those keys to ints; n is the staircase and degree the
    common degree (None when empty)."""

    __slots__ = ()

    def items(self):
        # printed-table order: largest Q-index first, then v1 before v2 powers
        def order(kv):
            (mu, a, b), _ = kv
            return (-mu.weight, tuple(-p for p in mu), -a, -b)

        return sorted(self.coefficients.items(), key=order)

    def get(self, mu, a: int, b: int) -> int:
        return self.coefficients.get((StrictPartition(mu), a, b), 0)

    def to_json(self, items=None) -> list:
        return [{"strict_partition": list(mu), "a": a, "b": b,
                 "coeff": number_text(c)}
                for (mu, a, b), c in (self.items() if items is None else items)]


# the keys of the terms 1, v1 and v2, whose basis class is the empty one
_ONE = (StrictPartition(), 0, 0)
_V_KEYS = {FAMILY_V1: (StrictPartition(), 1, 0), FAMILY_V2: (StrictPartition(), 0, 1)}


def _collect(terms) -> "_LegendrianValue":
    """Sum (key, coefficient) pairs into the nonzero coefficients, the keys of
    one basis class together and the classes in the order they first occur:
    a class keeps its place while any of its terms is nonzero, and that
    order decides which class outside the staircase legendrian_parse names."""
    classes: dict[StrictPartition, dict] = {}
    for (mu, a, b), c in terms:
        exponents = classes.setdefault(mu, {})
        exponents[a, b] = exponents.get((a, b), 0) + c
    return _LegendrianValue({(mu, a, b): c for mu, exponents in classes.items()
                             for (a, b), c in exponents.items() if c})


class _LegendrianValue(dict):
    """Evaluator value: the nonzero integer coefficients of a combination of
    Y^mu v1^a v2^b, keyed by (mu, a, b).

    Products are defined only when at most one operand has basis content,
    since the basis classes have no ring structure.
    """

    def is_scalar(self) -> bool:
        return all(not mu for mu, _, _ in self)

    def __add__(self, other):
        return _collect([*self.items(), *other.items()])

    def __sub__(self, other):
        return _collect([*self.items(), *((key, -c) for key, c in other.items())])

    def __mul__(self, other):
        if not other.is_scalar():
            if not self.is_scalar():
                raise ValueError("products of Q-basis classes are not defined "
                                 "in a Legendrian expression")
            self, other = other, self
        return _collect(((mu, a + a2, b + b2), c * c2) for (mu, a, b), c in self.items()
                        for (_, a2, b2), c2 in other.items())

    def __pow__(self, e: int):
        if not self.is_scalar():
            raise ValueError("powers of Q-basis classes are not defined "
                             "in a Legendrian expression")
        result, base = _LegendrianValue({_ONE: 1}), self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


def _atom(expr) -> "_LegendrianValue":
    if isinstance(expr, parsing.Num):
        return _LegendrianValue({_ONE: expr.value} if expr.value else {})
    if isinstance(expr, parsing.Gen):
        if expr.family not in _V_KEYS:
            raise ValueError("only v1, v2 and q-basis atoms may appear in a "
                             "Legendrian expression")
        return _LegendrianValue({_V_KEYS[expr.family]: 1})
    if expr.kind != "q":
        raise ValueError("Legendrian expressions use the q basis only")
    return _LegendrianValue({(StrictPartition(expr.parts), 0, 0): 1})


def legendrian_parse(text: str, n: int) -> LegendrianClass:
    """Parse an expression into the {Y^mu v1^a v2^b} basis without reduction.

    Q-indices must already be strict basis labels inside the staircase of n;
    the whole expression must be homogeneous in |mu| + a + b.
    """
    coefficients = dict(parsing.evaluate(parsing.parse(text), _atom))
    degrees = set()
    for mu, a, b in coefficients:
        if mu and mu[0] > n:
            raise ValueError(f"{mu!r} is not inside the staircase of {n}")
        degrees.add(mu.weight + a + b)
    if len(degrees) > 1:
        raise ValueError(f"expression is inhomogeneous: degrees {degree_list(degrees)}")
    degree = degrees.pop() if degrees else None
    return LegendrianClass(coefficients, n=n, degree=degree)


def lagrangian_part(x: LegendrianClass) -> Expansion:
    """The v1 = v2 = 0 slice: the Thom polynomial of the Lagrange singularity."""
    coeffs = {mu: c for (mu, a, b), c in x.coefficients.items() if a == 0 and b == 0}
    return Expansion(coeffs, degree=x.degree, key=StrictPartition)


def legendrian_positivity(x: LegendrianClass, name: str | None = None) -> PositivityReport:
    """Nonnegativity of a class in the {Y^mu v1^a v2^b} basis."""
    return positivity_report(x, VERDICT_NONNEGATIVE, name=name)


class LegendrianTableEntry(namedtuple("LegendrianTableEntry",
                                      "name expression lagrangian_expression codimension")):
    """A published Legendrian class with its bold Lagrangian sub-expression."""

    __slots__ = ()


# The worked table of Legendrian classes; bold parts are the Lagrangian
# Thom polynomials.  Rank 4 accommodates every index that occurs.
LEGENDRIAN_RANK = 4

LEGENDRIAN_TABLE: tuple[LegendrianTableEntry, ...] = (
    LegendrianTableEntry("A_2", "q[1]", "q[1]", 1),
    LegendrianTableEntry("A_3", "3*q[2] + v2*q[1]", "3*q[2]", 2),
    LegendrianTableEntry(
        "A_4",
        "12*q[3] + 3*q[2,1] + (3*v1 + 7*v2)*q[2] + (v1*v2 + v2^2)*q[1]",
        "12*q[3] + 3*q[2,1]",
        3,
    ),
    LegendrianTableEntry("D_4", "q[2,1]", "q[2,1]", 3),
    LegendrianTableEntry(
        "A_5",
        "60*q[4] + 27*q[3,1] + (6*v1 + 16*v2)*q[2,1] + (39*v1 + 47*v2)*q[3] "
        "+ (6*v1^2 + 22*v1*v2 + 12*v2^2)*q[2] + (2*v1^2*v2 + 3*v1*v2^2 + v2^3)*q[1]",
        "60*q[4] + 27*q[3,1]",
        4,
    ),
    LegendrianTableEntry("D_5", "6*q[3,1] + 4*v2*q[2,1]", "6*q[3,1]", 4),
    LegendrianTableEntry("P_8", "q[3,2,1]", "q[3,2,1]", 6),
    LegendrianTableEntry("P_9", "12*q[4,2,1] + 12*v2*q[3,2,1]", "12*q[4,2,1]", 7),
)


def verify_legendrian_table() -> list[PositivityReport]:
    """Positivity of every corpus entry in the {Y^mu v1^a v2^b} basis."""
    out = []
    for entry in LEGENDRIAN_TABLE:
        parsed = legendrian_parse(entry.expression, LEGENDRIAN_RANK)
        out.append(legendrian_positivity(parsed, name=entry.name))
    return out


def verify_lagrangian_table() -> list[PositivityReport]:
    """Nonnegativity of the bold Lagrangian parts of the corpus: each report's
    expansion is the v -> 0 slice of the full class, which must match the
    printed bold part."""
    out = []
    for entry in LEGENDRIAN_TABLE:
        part = lagrangian_part(legendrian_parse(entry.expression, LEGENDRIAN_RANK))
        out.append(positivity_report(part, VERDICT_NONNEGATIVE, name=entry.name))
    return out

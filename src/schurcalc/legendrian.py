"""Legendrian characteristic classes in the basis {Y^mu v1^a v2^b}.

A LegendrianClass is an expansion container: the basis classes are opaque
(no product is defined on them), v1 and v2 are honest degree-1 generators,
and the Lagrangian part is the v -> 0 slice.  The built-in corpus stores
the published table entries verbatim as expression strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .partitions import StrictPartition
from .polynomial import FAMILY_V1, FAMILY_V2, CPolynomial, degree_list
from .schur import Expansion
from . import parsing


@dataclass
class LegendrianClass:
    """Integer expansion over (strict partition, v1-exponent, v2-exponent)."""

    coefficients: dict[tuple[StrictPartition, int, int], int]
    n: int
    degree: int | None

    def items(self):
        # printed-table order: largest Q-index first, then v1 before v2 powers
        def order(kv):
            (mu, a, b), _ = kv
            return (-mu.weight, tuple(-p for p in mu.parts), -a, -b)

        return sorted(self.coefficients.items(), key=order)

    def get(self, mu, a: int, b: int) -> int:
        return self.coefficients.get((StrictPartition(mu), a, b), 0)

    def to_json(self) -> list:
        return [{"strict_partition": list(mu.parts), "a": a, "b": b,
                 "coeff": str(c)} for (mu, a, b), c in self.items()]


def _vpoly_degree_terms(p: CPolynomial):
    """Split a v-only polynomial into ((a, b), coeff) pairs."""
    for mono, coeff in p.terms.items():
        a = b = 0
        for g, e in mono:
            if g[0] == FAMILY_V1:
                a = e
            elif g[0] == FAMILY_V2:
                b = e
            else:
                raise ValueError(f"unexpected generator {g} in a v-polynomial")
        yield (a, b), coeff


class _LegendrianValue:
    """Evaluator value: map from strict index (or None) to a v-polynomial.

    The None key carries the pure scalar/v part; products are defined only
    when at most one operand has basis content, since the basis classes
    have no ring structure.
    """

    def __init__(self, parts: dict):
        self.parts = {k: v for k, v in parts.items() if not v.is_zero()}

    @staticmethod
    def scalar(p: CPolynomial) -> "_LegendrianValue":
        return _LegendrianValue({None: p})

    @staticmethod
    def basis(mu: StrictPartition) -> "_LegendrianValue":
        return _LegendrianValue({mu: CPolynomial.one()})

    def is_scalar(self) -> bool:
        return set(self.parts) <= {None}

    def __add__(self, other):
        merged = dict(self.parts)
        for k, v in other.parts.items():
            merged[k] = merged.get(k, CPolynomial.zero()) + v
        return _LegendrianValue(merged)

    def __sub__(self, other):
        merged = dict(self.parts)
        for k, v in other.parts.items():
            merged[k] = merged.get(k, CPolynomial.zero()) - v
        return _LegendrianValue(merged)

    def __mul__(self, other):
        if not other.is_scalar():
            if not self.is_scalar():
                raise ValueError("products of Q-basis classes are not defined "
                                 "in a Legendrian expression")
            self, other = other, self
        scale = other.parts.get(None, CPolynomial.zero())
        return _LegendrianValue({k: v * scale for k, v in self.parts.items()})

    def __pow__(self, e: int):
        if not self.is_scalar():
            raise ValueError("powers of Q-basis classes are not defined "
                             "in a Legendrian expression")
        return _LegendrianValue.scalar(self.parts.get(None, CPolynomial.zero()) ** e)


def _atom(expr) -> _LegendrianValue:
    if isinstance(expr, parsing.Num):
        return _LegendrianValue.scalar(CPolynomial.constant(expr.value))
    if isinstance(expr, parsing.Gen):
        if expr.family not in (FAMILY_V1, FAMILY_V2):
            raise ValueError("only v1, v2 and q-basis atoms may appear in a "
                             "Legendrian expression")
        return _LegendrianValue.scalar(CPolynomial.gen(expr.family))
    if expr.kind != "q":
        raise ValueError("Legendrian expressions use the q basis only")
    return _LegendrianValue.basis(StrictPartition(expr.parts))


def legendrian_parse(text: str, n: int) -> LegendrianClass:
    """Parse an expression into the {Y^mu v1^a v2^b} basis without reduction.

    Q-indices must already be strict basis labels inside the staircase of n;
    the whole expression must be homogeneous in |mu| + a + b.
    """
    value = parsing.evaluate(parsing.parse(text), _atom)
    coefficients: dict[tuple[StrictPartition, int, int], int] = {}
    degrees = set()
    for key, vpoly in value.parts.items():
        mu = key if key is not None else StrictPartition()
        if mu.parts and mu.parts[0] > n:
            raise ValueError(f"{mu!r} is not inside the staircase of {n}")
        for (a, b), coeff in _vpoly_degree_terms(vpoly):
            degrees.add(mu.weight + a + b)
            slot = (mu, a, b)
            coefficients[slot] = coefficients.get(slot, 0) + coeff
    coefficients = {k: v for k, v in coefficients.items() if v}
    if len(degrees) > 1:
        raise ValueError(f"expression is inhomogeneous: degrees {degree_list(degrees)}")
    degree = degrees.pop() if degrees else None
    return LegendrianClass(coefficients, n=n, degree=degree)


def lagrangian_part(x: LegendrianClass) -> Expansion:
    """The v1 = v2 = 0 slice: the Thom polynomial of the Lagrange singularity."""
    coeffs = {mu: c for (mu, a, b), c in x.coefficients.items() if a == 0 and b == 0}
    return Expansion(coeffs, degree=x.degree, key=StrictPartition)


@dataclass
class LegendrianReport:
    """Nonnegativity verdict for a class in the {Y^mu v1^a v2^b} basis."""

    value: LegendrianClass
    nonnegative: bool
    witnesses: list = field(default_factory=list)
    name: str | None = None

    def to_json(self) -> dict:
        out = {}
        if self.name is not None:
            out["name"] = self.name
        out["verdict"] = "NONNEGATIVE" if self.nonnegative else "NOT_NONNEGATIVE"
        out["expansion"] = self.value.to_json()
        if self.witnesses:
            out["witnesses"] = [{"strict_partition": list(mu.parts), "a": a,
                                 "b": b, "coeff": str(c)}
                                for (mu, a, b), c in self.witnesses]
        return out


def legendrian_positivity(x: LegendrianClass, name: str | None = None) -> LegendrianReport:
    witnesses = [(key, c) for key, c in x.items() if c < 0]
    return LegendrianReport(x, nonnegative=not witnesses, witnesses=witnesses,
                            name=name)


@dataclass(frozen=True)
class LegendrianTableEntry:
    """A published Legendrian class with its bold Lagrangian sub-expression."""

    name: str
    expression: str
    lagrangian_expression: str
    codimension: int


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


def verify_legendrian_table() -> list[LegendrianReport]:
    """Positivity of every corpus entry in the {Y^mu v1^a v2^b} basis."""
    out = []
    for entry in LEGENDRIAN_TABLE:
        parsed = legendrian_parse(entry.expression, LEGENDRIAN_RANK)
        out.append(legendrian_positivity(parsed, name=entry.name))
    return out


def verify_lagrangian_table() -> list[tuple[str, Expansion, bool]]:
    """Nonnegativity of the bold Lagrangian parts of the corpus.

    Returns (name, expansion, nonnegative) per entry; the expansion is the
    v -> 0 slice of the full class and must match the printed bold part.
    """
    out = []
    for entry in LEGENDRIAN_TABLE:
        parsed = legendrian_parse(entry.expression, LEGENDRIAN_RANK)
        part = lagrangian_part(parsed)
        out.append((entry.name, part, part.is_nonnegative()))
    return out

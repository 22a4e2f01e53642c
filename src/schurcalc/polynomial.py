"""Sparse multivariate polynomials over arbitrary-precision integers.

Generators are graded: c_i and c'_j have degree equal to their index, the
line classes v1 and v2 have degree 1.  Monomials are stored canonically and
ordered degree-first, then reverse lexicographically, so every serialization
is reproducible.
"""

from __future__ import annotations

FAMILY_C = "c"
FAMILY_CPRIME = "c'"
FAMILY_V1 = "v1"
FAMILY_V2 = "v2"

_FAMILY_RANK = {FAMILY_C: 0, FAMILY_CPRIME: 1, FAMILY_V1: 2, FAMILY_V2: 3}

# A generator is a (family, index) pair; v1/v2 carry index 0.
Generator = tuple[str, int]
# A monomial maps generators to positive exponents, stored as a sorted tuple.
Monomial = tuple[tuple[Generator, int], ...]


def generator(family: str, index: int = 0) -> Generator:
    if family in (FAMILY_V1, FAMILY_V2):
        if index:
            raise ValueError(f"{family} takes no index")
        return (family, 0)
    if family in (FAMILY_C, FAMILY_CPRIME):
        if index < 1:
            raise ValueError(f"{family} index must be positive, got {index}")
        return (family, index)
    raise ValueError(f"unknown generator family {family!r}")


def generator_degree(g: Generator) -> int:
    family, index = g
    return 1 if family in (FAMILY_V1, FAMILY_V2) else index


def generator_name(g: Generator) -> str:
    family, index = g
    if family in (FAMILY_V1, FAMILY_V2):
        return family
    return f"{family}{index}"


def _generator_key(g: Generator) -> tuple[int, int]:
    return (_FAMILY_RANK[g[0]], g[1])


def monomial_degree(m: Monomial) -> int:
    return sum(generator_degree(g) * e for g, e in m)


def degree_list(degrees) -> str:
    """Sorted degrees for an error message; more than four are elided."""
    ds = sorted(degrees)
    if len(ds) <= 4:
        return str(ds)
    return f"[{ds[0]}, {ds[1]}, {ds[2]}, ..., {ds[-1]}], {len(ds)} in all"


def monomial_key(m: Monomial):
    """Global monomial order: degree, then reverse lexicographic.

    On a single c-family this sorts the monomial c_mu by the reverse
    lexicographic order of the index partition mu, matching the fixed
    partition order.
    """
    expanded = []
    for g, e in sorted(m, key=lambda ge: (_FAMILY_RANK[ge[0][0]], -ge[0][1])):
        fam, idx = g
        expanded.extend([(_FAMILY_RANK[fam], -idx)] * e)
    return (monomial_degree(m), tuple(expanded))


def monomial_name(m: Monomial) -> str:
    if not m:
        return "1"
    pieces = []
    for g, e in m:
        pieces.append(generator_name(g) if e == 1 else f"{generator_name(g)}^{e}")
    return "*".join(pieces)


class CPolynomial:
    """Exact sparse polynomial in the graded generators.

    Terms map canonical monomials to nonzero integers; arithmetic is exact.
    Instances are treated as immutable values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        cleaned: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if not coeff:
                    continue
                exps: dict[Generator, int] = {}
                for g, e in mono:
                    if e < 0:
                        raise ValueError(f"negative exponent in monomial: {mono}")
                    if e:
                        exps[g] = exps.get(g, 0) + e
                key = tuple(sorted(exps.items(), key=lambda ge: _generator_key(ge[0])))
                new = cleaned.get(key, 0) + coeff
                if new:
                    cleaned[key] = new
                else:
                    cleaned.pop(key, None)
        self.terms = cleaned

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "CPolynomial":
        return CPolynomial()

    @staticmethod
    def constant(n: int) -> "CPolynomial":
        return CPolynomial({(): int(n)})

    @staticmethod
    def one() -> "CPolynomial":
        return CPolynomial.constant(1)

    @staticmethod
    def gen(family: str, index: int = 0) -> "CPolynomial":
        return CPolynomial({((generator(family, index), 1),): 1})

    @staticmethod
    def from_monomial(mono: Monomial, coeff: int = 1) -> "CPolynomial":
        return CPolynomial({mono: coeff})

    # -- ring structure -----------------------------------------------

    def __add__(self, other) -> "CPolynomial":
        other = _coerce(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = terms.get(mono, 0) + coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        out = CPolynomial.__new__(CPolynomial)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "CPolynomial":
        out = CPolynomial.__new__(CPolynomial)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other) -> "CPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "CPolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "CPolynomial":
        other = _coerce(other)
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _merge_monomials(m1, m2)
                new = terms.get(mono, 0) + c1 * c2
                if new:
                    terms[mono] = new
                else:
                    terms.pop(mono, None)
        out = CPolynomial.__new__(CPolynomial)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CPolynomial":
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = CPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, CPolynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degrees = {monomial_degree(m) for m in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int | None:
        """Common weighted degree of all terms; None for the zero polynomial."""
        degrees = {monomial_degree(m) for m in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"polynomial is not homogeneous (degrees {degree_list(degrees)})")
        return degrees.pop()

    def generators(self) -> set[Generator]:
        return {g for mono in self.terms for g, _ in mono}

    def families(self) -> set[str]:
        return {g[0] for g in self.generators()}

    def coefficient(self, mono: Monomial) -> int:
        mono = tuple(sorted(mono, key=lambda ge: _generator_key(ge[0])))
        return self.terms.get(mono, 0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda item: monomial_key(item[0]))

    def __repr__(self) -> str:
        return f"CPolynomial({self})"

    def __str__(self) -> str:
        # leading term (last in the global order) first, as in printed tables
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in reversed(self.sorted_terms()):
            mag = abs(coeff)
            body = monomial_name(mono)
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not pieces:
                pieces.append(text if coeff > 0 else f"0 - {text}")
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + text)
        return " ".join(pieces)


def _coerce(value) -> CPolynomial:
    if isinstance(value, CPolynomial):
        return value
    if isinstance(value, int):
        return CPolynomial.constant(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict[Generator, int] = dict(m1)
    for g, e in m2:
        exps[g] = exps.get(g, 0) + e
    return tuple(sorted(exps.items(), key=lambda ge: _generator_key(ge[0])))


def specialize(p: CPolynomial, assignment: dict[Generator, CPolynomial]) -> CPolynomial:
    """Simultaneous substitution of generators by polynomials.

    Each assigned generator must map to zero or to a homogeneous polynomial
    of the same degree, so specialization preserves the grading.
    """
    for g, value in assignment.items():
        if value.is_zero():
            continue
        if value.homogeneous_degree() != generator_degree(g):
            raise ValueError(
                f"assignment for {generator_name(g)} must be homogeneous of degree "
                f"{generator_degree(g)}"
            )
    result = CPolynomial.zero()
    for mono, coeff in p.terms.items():
        term = CPolynomial.constant(coeff)
        for g, e in mono:
            if g in assignment:
                term = term * assignment[g] ** e
                if term.is_zero():
                    break
            else:
                term = term * CPolynomial.from_monomial(((g, e),))
        result = result + term
    return result


def truncate_family(p: CPolynomial, family: str, rank: int) -> CPolynomial:
    """Set every generator of the family with index above rank to zero.

    This is the rank specialization c_k -> 0 for k > rank, applied as an
    explicit separate step so universal computations stay universal.
    """
    terms = {
        mono: coeff
        for mono, coeff in p.terms.items()
        if all(g[0] != family or g[1] <= rank for g, _ in mono)
    }
    return CPolynomial(terms)


def poly_det(rows: list[list[CPolynomial]]) -> CPolynomial:
    """Determinant of a square polynomial matrix by memoized minor expansion."""
    size = len(rows)
    if size == 0:
        return CPolynomial.one()
    for row in rows:
        if len(row) != size:
            raise ValueError("matrix must be square")

    cache: dict[tuple[int, tuple[int, ...]], CPolynomial] = {}

    def minor(i: int, cols: tuple[int, ...]) -> CPolynomial:
        if not cols:
            return CPolynomial.one()
        key = (i, cols)
        if key in cache:
            return cache[key]
        total = CPolynomial.zero()
        for pos, j in enumerate(cols):
            entry = rows[i][j]
            if entry.is_zero():
                continue
            sub = minor(i + 1, cols[:pos] + cols[pos + 1:])
            piece = entry * sub
            total = total + (piece if pos % 2 == 0 else -piece)
        cache[key] = total
        return total

    return minor(0, tuple(range(size)))

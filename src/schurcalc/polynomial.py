"""Sparse multivariate polynomials over arbitrary-precision integers.

Generators are graded: c_i and c'_j have degree equal to their index, the
line classes v1 and v2 have degree 1.  Monomials are stored canonically and
ordered degree-first, then reverse lexicographically, so every serialization
is reproducible.
"""

# the family names and degree_list live in the base module, which the
# Pieri layer and the grammar read without loading this one
from .partitions import FAMILY_C, FAMILY_CPRIME, FAMILY_V1, FAMILY_V2, degree_list, number_text

# A generator is a (family, index) pair; v1/v2 carry index 0.  The family
# names sort c < c' < v1 < v2, so generators sort as plain tuples.
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
    """The degree of a generator: 1 for v1 and v2, else the index."""
    family, index = g
    return 1 if family in (FAMILY_V1, FAMILY_V2) else index


def generator_name(g: Generator) -> str:
    family, index = g
    if family in (FAMILY_V1, FAMILY_V2):
        return family
    return f"{family}{index}"


def monomial_degree(m: Monomial) -> int:
    return sum(generator_degree(g) * e for g, e in m)


def monomial_key(m: Monomial):
    """Global monomial order: degree, then reverse lexicographic.

    On a single c-family this sorts the monomial c_mu by the reverse
    lexicographic order of the index partition mu, matching the fixed
    partition order.
    """
    expanded = []
    for (fam, idx), e in sorted(m, key=lambda ge: (ge[0][0], -ge[0][1])):
        expanded.extend([(fam, -idx)] * e)
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
                key = tuple(sorted(exps.items()))
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
        mono = tuple(sorted(mono))
        return self.terms.get(mono, 0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda item: monomial_key(item[0]))

    def truncated(self, family: str, rank: int) -> "CPolynomial":
        """Set every generator of the family with index above rank to zero.

        This is the rank specialization c_k -> 0 for k > rank, applied as an
        explicit separate step so universal computations stay universal.
        One pass keeps the other monomials, canonical already, as they are.
        """
        terms = {}
        for mono, coeff in self.terms.items():
            # generators sort by family, then index, so the last generator
            # of the family in a monomial has its highest index
            for (name, k), _ in reversed(mono):
                if name == family:
                    if k <= rank:
                        terms[mono] = coeff
                    break
            else:
                terms[mono] = coeff
        out = CPolynomial.__new__(CPolynomial)
        out.terms = terms
        return out

    def __repr__(self) -> str:
        return f"CPolynomial({self})"

    def __str__(self) -> str:
        # leading term (last in the global order) first, as in printed tables
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in reversed(self.sorted_terms()):
            mag = number_text(abs(coeff))
            body = monomial_name(mono)
            if body == "1":
                text = mag
            elif mag == "1":
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
    return tuple(sorted(exps.items()))


# the rank specialization as a function of p, family and rank
truncate_family = CPolynomial.truncated

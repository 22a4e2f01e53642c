"""Expressions evaluated on a basis: the syntax tree folded with BasisValue.

A basis is (step, bound, product): its Pieri step c_k . b_lam, that step's
bound, and the product of two classes as (kappa, m) pairs; to-schur and
certify use the Schur basis, gr/lg reduce and integrate a ring's.  The c_k
factors stay c-monomials until the end, where pieri.monomial_fold folds each
on the classes it multiplies.  Only a q atom builds a c-polynomial to
evaluate, terms of different degrees one to check, and only evaluate_schur
imports the Schur functions.  run is the to-schur and certify command;
gr/lg reduce and integrate are ringcommands.run, on a ring's basis.

Both read the expression's text here (expression_text) and the syntax tree
before they evaluate it (expression_reading): the degrees and families the
tree alone shows, in which a literal 0 makes a term zero.
"""

from .parsing import Gen, Num, evaluate, parse
from .partitions import FAMILY_C, TERM_DEGREE, check_term_budget
from .pieri import OPEN, monomial_fold, vertical_strips


def expression_text(args, value: str | None) -> str:
    """The expression of a command: value, else the text of --input FILE."""
    if value is not None:
        return value
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    raise ValueError("an expression is required (positional or via --input)")


class _Reading:
    """Evaluator value for what the syntax tree alone says of an expression:
    lo and hi bound the degrees of the value's terms, peak is the highest
    degree of any subexpression (more than hi only under a power 0 or a zero
    term), and families holds the generator families it names, c for s and
    q atoms.  zero marks a value that a literal 0 makes zero: 0 itself, a
    product with a zero factor and a positive power of one.  A sum reads lo,
    hi and families from its nonzero terms, or from all of them when each
    is zero."""

    __slots__ = ("lo", "hi", "peak", "families", "zero")

    def __init__(self, lo: int, hi: int, peak: int, families: frozenset, zero: bool = False):
        self.lo, self.hi, self.peak, self.families, self.zero = lo, hi, peak, families, zero

    def __add__(self, other: "_Reading") -> "_Reading":
        peak = max(self.peak, other.peak)
        if self.zero != other.zero:
            kept = other if self.zero else self
            return _Reading(kept.lo, kept.hi, peak, kept.families)
        return _Reading(min(self.lo, other.lo), max(self.hi, other.hi), peak,
                        self.families | other.families, self.zero)

    __sub__ = __add__

    def __mul__(self, other: "_Reading") -> "_Reading":
        hi = self.hi + other.hi
        return _Reading(self.lo + other.lo, hi, max(self.peak, other.peak, hi),
                        self.families | other.families, self.zero or other.zero)

    def __pow__(self, e: int) -> "_Reading":
        return _Reading(self.lo * e, self.hi * e, max(self.peak, self.hi * e), self.families,
                        self.zero and e > 0)


def _reading_atom(expr: "Num | Gen | Basis") -> _Reading:
    if isinstance(expr, Num):
        return _Reading(0, 0, 0, frozenset(), expr.value == 0)
    if isinstance(expr, Gen):
        d = expr.index or 1  # v1 and v2 have index 0 and degree 1
        return _Reading(d, d, d, frozenset((expr.family,)))
    d = sum(expr.parts)
    return _Reading(d, d, d, frozenset((FAMILY_C,)))


def expression_reading(expr) -> _Reading:
    """What the syntax tree alone says of the value of expr: numbers have
    degree 0, c_k and c'_k degree k, v1 and v2 degree 1, s[lam] and q[mu]
    their weight."""
    return evaluate(expr, _reading_atom)


class BasisValue:
    """Evaluator value: terms maps (lam, mono) to nonzero ints, for b_lam times
    the c-monomial mono (((family, k), e) pairs as in a CPolynomial), folded
    only at the end, so sums cancel and powers of c-monomials stay exponents."""

    __slots__ = ("terms", "basis")

    def __init__(self, terms: dict, basis: tuple):
        self.terms = terms
        self.basis = basis

    def expanded(self) -> dict:
        """The classes of each c-monomial folded with it, and summed."""
        step, bound, _ = self.basis
        pending = {}
        for (lam, mono), c in self.terms.items():
            pending.setdefault(mono, {})[lam] = c
        return _sum((1, monomial_fold(mono, step, bound, classes).items())
                    for mono, classes in pending.items())

    def __add__(self, other: "BasisValue", sign: int = 1) -> "BasisValue":
        return BasisValue(_sum(((1, self.terms.items()), (sign, other.terms.items()))), self.basis)

    def __sub__(self, other: "BasisValue") -> "BasisValue":
        return self.__add__(other, -1)

    def __mul__(self, other: "BasisValue") -> "BasisValue":
        product, out = self.basis[2], {}
        for (lam, a), x in self.terms.items():
            for (mu, b), y in other.terms.items():
                mono = tuple(sorted(_sum(((1, a), (1, b))).items())) if a and b else a or b
                for kappa, m in product(lam, mu):
                    key = kappa, mono
                    out[key] = out.get(key, 0) + x * y * m
        return BasisValue({key: c for key, c in out.items() if c}, self.basis)

    def __pow__(self, e: int) -> "BasisValue":
        if e and len(self.terms) == 1:
            [((lam, mono), c)] = self.terms.items()
            if not lam:  # c times a c-monomial
                return BasisValue({((), tuple((g, n * e) for g, n in mono)): c ** e}, self.basis)
        # e products: by its classes if its terms share a degree within the output budget
        degrees = {sum(lam) + sum(g[1] * n for g, n in mono) for lam, mono in self.terms}
        base = self
        if e and len(degrees) == 1 and max(degrees) <= TERM_DEGREE:
            base = BasisValue({(k, ()): c for k, c in self.expanded().items()}, self.basis)
        out = BasisValue({((), ()): 1}, self.basis)
        for _ in range(e):
            out = out * base
            if not out.terms:
                break
        return out


def _sum(scaled) -> dict:
    """sum c . m . key over (c, pairs) in scaled and (key, m) in pairs, but 0."""
    out = {}
    for c, pairs in scaled:
        for key, m in pairs:
            out[key] = out.get(key, 0) + c * m
    return {key: c for key, c in out.items() if c}


def basis_atom(expr: "Num | Gen | Basis", basis: tuple) -> BasisValue:
    """A leaf as a class: s[lam] is s_lam, c_k and c'_k c-monomials, and q[mu]
    those of its Q-tilde polynomial, which loads the polynomial layer.  The
    families are checked before evaluation, so a v atom comes here only
    under a literal 0, and that product drops it."""
    if isinstance(expr, Num):
        return BasisValue({((), ()): expr.value} if expr.value else {}, basis)
    if isinstance(expr, Gen):
        return BasisValue({((), (((expr.family, expr.index), 1),)): 1}, basis)
    if expr.kind == "s":
        return BasisValue({(expr.parts, ()): 1}, basis)
    from .qtilde import qtilde

    return BasisValue({((), mono): c for mono, c in qtilde(expr.parts).terms.items()}, basis)


def evaluate_schur(text: str, length_bound: int | None = None) -> "Expansion":
    """The Schur expansion of an expression, with the messages of to_schur.

    The syntax tree's highest degree, then that of every subexpression, must
    pass the output budget, and it must name one c-type family.  Terms of
    different degrees build the c-polynomial only to check that the value is
    homogeneous.  Every expression is evaluated in the Schur basis; the value
    must lie on partitions of at most length_bound parts, when one is given.
    """
    from .schur import check_schur_families, pair_product, schur_expansion

    expr = parse(text)
    reading = expression_reading(expr)
    check_term_budget(reading.hi)
    check_term_budget(reading.peak)
    check_schur_families(reading.families)
    if reading.lo != reading.hi:
        evaluate(expr).homogeneous_degree()  # raises on an inhomogeneous value
    basis = (vertical_strips, OPEN, pair_product)
    return schur_expansion(evaluate(expr, lambda leaf: basis_atom(leaf, basis)).expanded(),
                           length_bound)


def run(args, pretty: bool) -> int:
    """to-schur and certify (exit 1 unless nonnegative)."""
    from .cli import emit, expansion_payload

    if args.length_bound is not None and args.length_bound < 0:
        raise ValueError(f"length bound must be nonnegative, got {args.length_bound}")
    expansion = evaluate_schur(expression_text(args, args.expr), args.length_bound)
    if args.command == "to-schur":
        emit(expansion_payload(expansion), pretty)
        return 0
    from .positivity import schur_positivity

    report = schur_positivity(expansion)
    emit(report.to_json(), pretty)
    return 0 if report.nonnegative else 1

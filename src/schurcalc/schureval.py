"""Expressions evaluated in the Schur basis: the input of to-schur and certify.

The grammar's syntax tree is folded with Schur expansions as its values,
and every product is a Pieri build, so no c-polynomial is built unless the
expression has a q atom or terms of different degrees.  Only to-schur and
certify load this module; the ring commands read their expressions as
c-polynomials through parsing.evaluate_text.
"""

from .partitions import Partition, check_term_budget
from .parsing import Gen, Num, evaluate, expression_reading, parse
from .schur import check_schur_families, pair_product, schur_expansion, to_schur


def schur_product(a: dict[tuple[int, ...], int],
                  b: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """Coefficients of (sum a_lam s_lam) . (sum b_mu s_mu) on tuples of parts."""
    out: dict[tuple[int, ...], int] = {}
    for lam, x in a.items():
        for mu, y in b.items():
            for kappa, m in pair_product(lam, mu):
                out[kappa] = out.get(kappa, 0) + x * y * m
    return {kappa: c for kappa, c in out.items() if c}


class _SchurValue:
    """Evaluator value in the Schur basis: terms maps tuples of parts to
    nonzero ints, and columns holds the indices k of c_k factors not yet
    applied.  A product with c-monomials only joins their columns; a sum and
    the end of the evaluation apply them, each as one vertical strip step
    per term."""

    __slots__ = ("terms", "columns")

    def __init__(self, terms: dict, columns: tuple = ()):
        self.terms = terms
        self.columns = columns if terms else ()

    def expanded(self) -> dict:
        terms = self.terms
        for k in self.columns:
            terms = schur_product(terms, {(1,) * k: 1})
        return terms

    def __add__(self, other: "_SchurValue") -> "_SchurValue":
        terms = dict(self.expanded())
        for lam, c in other.expanded().items():
            terms[lam] = terms.get(lam, 0) + c
        return _SchurValue({lam: c for lam, c in terms.items() if c})

    def __sub__(self, other: "_SchurValue") -> "_SchurValue":
        return self + _SchurValue({(): -1}) * other

    def __mul__(self, other: "_SchurValue") -> "_SchurValue":
        return _SchurValue(schur_product(self.terms, other.terms), self.columns + other.columns)

    def __pow__(self, e: int) -> "_SchurValue":
        if not self.columns and set(self.terms) <= {()}:
            # a scalar, whose exponent the budget does not bound: one integer power
            scalar = self.terms.get((), 0) ** e
            return _SchurValue({(): scalar} if scalar else {})
        # the highest degree of every subexpression is within the budget, so
        # a value of positive degree has e <= 40
        out = _SchurValue({(): 1})
        for _ in range(e):
            out = out * self
        return out


def _schur_atom(expr: "Num | Gen | Basis") -> _SchurValue:
    """c_k and c'_k are s_(1^k) and s[lam] is s_lam; q[mu] is the Schur
    expansion of its Q-tilde polynomial, so only an expression with a q atom
    loads the polynomial layer.  The families are checked before evaluation,
    so no v atom comes here."""
    if isinstance(expr, Num):
        return _SchurValue({(): expr.value} if expr.value else {})
    if isinstance(expr, Gen):
        return _SchurValue({(): 1}, (expr.index,))
    if expr.kind == "s":
        return _SchurValue({expr.parts: 1})
    from .qtilde import qtilde

    expansion = to_schur(qtilde(Partition(expr.parts)))
    return _SchurValue({lam.parts: c for lam, c in expansion.items()})


def evaluate_schur(text: str, length_bound: int | None = None) -> "Expansion":
    """The Schur expansion of an expression, with the messages of to_schur.

    The syntax tree is read first: the highest degree of the expression,
    then that of every subexpression, must pass the output budget, and the
    generator families it names must be one c-type family.  An expression
    whose terms all have one degree is evaluated in the Schur basis.  One
    whose terms differ in degree may be inhomogeneous, which its
    c-polynomial shows before any expansion, so it is folded from that as
    to_schur does.  The value must lie on partitions of at most length_bound
    parts, when one is given.
    """
    expr = parse(text)
    reading = expression_reading(expr)
    check_term_budget(reading.hi)
    check_term_budget(reading.peak)
    check_schur_families(reading.families)
    if reading.lo != reading.hi:
        return to_schur(evaluate(expr), length_bound)
    return schur_expansion(evaluate(expr, _schur_atom).expanded(), length_bound)

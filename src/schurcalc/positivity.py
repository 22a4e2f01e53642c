"""Schur-positivity certification and the classical singularity corpus.

A weighted homogeneous polynomial in Chern classes is numerically positive
for ample bundles exactly when it is nonzero and its Schur expansion has
nonnegative coefficients; certify() decides that criterion exactly.  The
built-in corpus stores the classical singularity-class polynomials verbatim
as expression strings (data, not code) so they can be audited line by line.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .partitions import Partition, hook_contains, ssyt_weights
from .polynomial import CPolynomial
from .records import FrozenRecord, Record
from .schur import Expansion, schur_dual_jt, to_schur

VERDICT_POSITIVE = "POSITIVE"
VERDICT_NONNEGATIVE = "NONNEGATIVE"
VERDICT_ZERO = "ZERO"
VERDICT_NOT_NONNEGATIVE = "NOT_NONNEGATIVE"


class PositivityReport(Record):
    """Outcome of a positivity check: the polynomial (None for a class given
    in its basis), its Expansion or LegendrianClass, the verdict, the negative
    terms as (key, coefficient) witnesses, and an optional name."""

    __slots__ = ("polynomial", "expansion", "verdict", "witnesses", "name")
    defaults = {"witnesses": list, "name": None}

    @property
    def nonnegative(self) -> bool:
        return self.verdict != VERDICT_NOT_NONNEGATIVE

    def to_json(self) -> dict:
        out = {}
        if self.name is not None:
            out["name"] = self.name
        out["verdict"] = self.verdict
        out["expansion"] = self.expansion.to_json()
        if self.witnesses:
            out["witnesses"] = self.expansion.to_json(self.witnesses)
        return out


def positivity_report(expansion, verdict: str, polynomial: CPolynomial | None = None,
                      name: str | None = None) -> PositivityReport:
    """The report on an expansion: NOT_NONNEGATIVE with its negative terms
    as witnesses, else the given verdict."""
    witnesses = [(key, c) for key, c in expansion.items() if c < 0]
    return PositivityReport(polynomial, expansion,
                            VERDICT_NOT_NONNEGATIVE if witnesses else verdict,
                            witnesses, name=name)


def certify(p: CPolynomial, length_bound: int | None = None,
            name: str | None = None) -> PositivityReport:
    """Decide positivity: nonzero with a nonnegative Schur expansion."""
    expansion = to_schur(p, length_bound=length_bound)
    verdict = VERDICT_POSITIVE if expansion else VERDICT_ZERO
    return positivity_report(expansion, verdict, p, name)


class ThomTableEntry(FrozenRecord):
    """One classical singularity class: name, printed polynomial, codimension."""

    __slots__ = ("name", "expression", "codimension")

    @property
    def polynomial(self) -> CPolynomial:
        return _entry_polynomial(self.expression)


@lru_cache(maxsize=None)
def _entry_polynomial(expression: str) -> CPolynomial:
    from .parsing import evaluate_text

    return evaluate_text(expression)


# Singularity classes between equal-dimensional manifolds, as printed.
CLASSICAL_THOM_TABLE: tuple[ThomTableEntry, ...] = (
    ThomTableEntry("A_3", "c1^3 + 3*c1*c2 + 2*c3", 3),
    ThomTableEntry("A_4", "c1^4 + 6*c1^2*c2 + 2*c2^2 + 9*c1*c3 + 6*c4", 4),
    ThomTableEntry(
        "A_5",
        "c1^5 + 10*c1^3*c2 + 25*c1^2*c3 + 10*c1*c2^2 + 38*c1*c4 + 12*c2*c3 + 24*c5",
        5,
    ),
    ThomTableEntry("I_2,2", "c2^2 - c1*c3", 4),
    ThomTableEntry("I_2,3", "2*c1*c2^2 - 2*c1^2*c3 + 2*c2*c3 - 2*c1*c4", 5),
    ThomTableEntry(
        "I_2,4",
        "2*c1^2*c2^2 + 3*c2^3 - 2*c1^3*c3 + 2*c1*c2*c3 - 3*c3^2 - 5*c1^2*c4 "
        "+ 9*c2*c4 - 6*c1*c5",
        6,
    ),
)


def minimal_hook_rank(expansion: Expansion) -> int:
    """Smallest k with every expansion index inside the (k, k)-hook.

    Diagnostic only: for the equal-dimension corpus the expansion support
    should sit in small symmetric hooks; nothing in the algebra relies on
    this number.
    """
    k = 0
    while not all(hook_contains(lam, k, k) for lam, _ in expansion.items()):
        k += 1
    return k


def verify_thom_table() -> list[PositivityReport]:
    """Certify every built-in classical entry; all must come out POSITIVE."""
    return [certify(entry.polynomial, name=entry.name)
            for entry in CLASSICAL_THOM_TABLE]


# Schur polynomials as SSYT sums in formal variables x_1..x_N, with greedy
# peeling by lexicographically-leading monomials (for Schur bundle classes).

XPoly = dict[tuple[int, ...], int]


@lru_cache(maxsize=None)
def schur_monomials(lam: Partition, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The Schur polynomial of lam in n variables as (exponent, coeff) pairs."""
    counts: dict[tuple[int, ...], int] = {}
    for w in ssyt_weights(Partition(lam), n):
        counts[w] = counts.get(w, 0) + 1
    return tuple(sorted(counts.items()))


def xp_mul(a: XPoly, b: XPoly) -> XPoly:
    out: XPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            new = out.get(key, 0) + ca * cb
            if new:
                out[key] = new
            else:
                del out[key]
    return out


def xp_accumulate(target: XPoly, source, factor: int = 1) -> None:
    items = source.items() if isinstance(source, dict) else source
    for key, coeff in items:
        new = target.get(key, 0) + factor * coeff
        if new:
            target[key] = new
        else:
            target.pop(key, None)


def peel_schur(poly: XPoly, n: int) -> dict[Partition, int]:
    """Write a symmetric x-polynomial as a Schur combination by peeling.

    The lexicographically-leading exponent of s_nu is nu itself with
    coefficient 1, so repeatedly subtracting the Schur polynomial of the
    current leading monomial terminates and recovers the coefficients.
    """
    work = {k: v for k, v in poly.items() if v}
    out: dict[Partition, int] = {}
    while work:
        lead = max(work)
        if any(lead[i] < lead[i + 1] for i in range(len(lead) - 1)):
            raise ValueError(f"leading exponent {lead} is not a partition; "
                             "input is not a Schur combination")
        nu = Partition(lead)
        coeff = work[lead]
        out[nu] = coeff
        xp_accumulate(work, schur_monomials(nu, n), -coeff)
    return out


# Work bounds of schur_bundle_class: Chern roots of S^lam(E), and |mu|.
MAX_BUNDLE_ROOTS = 20
MAX_BUNDLE_WEIGHT = 4


def _weyl_dimension(lam: Partition, n: int) -> int | None:
    """dim S^lam(E) for E of rank n > len(lam), by Weyl's formula
    prod_{i<j<=n} (lam_i - lam_j + j - i)/(j - i).  The pairs with j > len(lam)
    multiply out to a ratio of binomials per row, so the cost follows the
    rows of lam, not n.  None when n and |lam| both exceed MAX_BUNDLE_ROOTS:
    a nonempty lam then has dimension at least max(n, |lam| + 1), more than
    the bound, and is not computed."""
    if min(n, lam.weight) > MAX_BUNDLE_ROOTS:
        return None
    parts, rows = lam.parts, len(lam)
    num = den = 1
    for i, a in enumerate(parts):
        for j in range(i + 1, rows):
            num *= a - parts[j] + j - i
            den *= j - i
        num *= comb(a + n - 1 - i, a)
        den *= comb(a + rows - 1 - i, a)
    return num // den


def schur_bundle_class(lam: Partition, mu: Partition, n: int) -> Expansion:
    """Expansion of s_mu of the Schur bundle S^lam(E) over the Schur basis of E.

    The Chern roots of S^lam(E) for E of rank n are the tableau weights
    sum_{cells} x_entry over the semistandard tableaux of shape lam; s_mu of
    that multiset of linear forms is a symmetric polynomial in x_1..x_n and
    is expanded by peeling.  All coefficients are nonnegative.  The root
    count and |mu| are checked before any tableau is listed.
    """
    lam, mu = Partition(lam), Partition(mu)
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    # S^lam(E) = det(E)^shift (x) S^rest(E) when lam has n rows; it is zero
    # when lam has more
    shift = lam.part(n) if len(lam) == n else 0
    rest = Partition(p - shift for p in lam.parts)
    count = _weyl_dimension(rest, n) if len(lam) <= n else 0
    if count is None or count > MAX_BUNDLE_ROOTS:
        shown = f"more than {MAX_BUNDLE_ROOTS}" if count is None else count
        raise ValueError(f"{shown} roots exceed the work bound {MAX_BUNDLE_ROOTS}")
    if mu.weight > MAX_BUNDLE_WEIGHT:
        raise ValueError(f"|mu| = {mu.weight} exceeds the work bound {MAX_BUNDLE_WEIGHT}")
    # every nu of weight |mu| has at most |mu| parts, so setting x_i = 0 for
    # i > m loses no term; a nonempty rest has n <= MAX_BUNDLE_ROOTS, and
    # the empty shape has the one zero weight in any number of variables
    m = min(n, mu.weight)
    weights = ssyt_weights(rest, n) if rest.parts else ((0,) * m,)
    # e_k of the roots for k <= |mu|, the coefficients of prod (1 + r t);
    # s_mu is a polynomial in these through c_k = e_k
    elementary: list[XPoly] = [{(0,) * m: 1}] + [{} for _ in range(mu.weight)]
    for w in weights:
        # the root of a tableau weight w is the linear form sum_i (w_i + shift) x_i
        root = {tuple(int(j == i) for j in range(m)): w[i] + shift
                for i in range(m) if w[i] + shift}
        for k in range(mu.weight, 0, -1):
            xp_accumulate(elementary[k], xp_mul(elementary[k - 1], root))
    acc: XPoly = {}
    for mono, coeff in schur_dual_jt(mu).terms.items():
        term: XPoly = {(0,) * m: 1}
        for (_, k), e in mono:
            for _ in range(e):
                term = xp_mul(term, elementary[k])
        xp_accumulate(acc, term, coeff)
    return Expansion(peel_schur(acc, m), degree=mu.weight)

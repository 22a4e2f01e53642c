"""Schur-positivity certification and the classical singularity corpus.

A weighted homogeneous polynomial in Chern classes is numerically positive
for ample bundles exactly when it is nonzero and its Schur expansion has
nonnegative coefficients; certify() decides that criterion exactly.  The
built-in corpus stores the classical singularity-class polynomials verbatim
as expression strings (data, not code) so they can be audited line by line.
Schur-bundle classes, which no certification needs, are in bundles.py.
table_payload is what thom-verify prints; the classical table certifies each
expression as the certify command does, by its Schur-basis evaluation, so it
builds no c-polynomial.  The Schur layer is imported by certify and
verify_thom_table when they run, so the Legendrian and Lagrangian tables,
whose classes are given in their own basis, load no Schur or polynomial code.
"""

from collections import namedtuple
from functools import cache

from .partitions import Partition, number_text

VERDICT_POSITIVE = "POSITIVE"
VERDICT_NONNEGATIVE = "NONNEGATIVE"
VERDICT_ZERO = "ZERO"
VERDICT_NOT_NONNEGATIVE = "NOT_NONNEGATIVE"


class PositivityReport(namedtuple("PositivityReport",
                                  "polynomial expansion verdict witnesses name",
                                  defaults=((), None))):
    """Outcome of a positivity check: the polynomial (None for a class given
    in its basis), its Expansion or LegendrianClass, the verdict, the negative
    terms as (key, coefficient) witnesses, and an optional name."""

    __slots__ = ()

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


def positivity_report(expansion, verdict: str, polynomial: "CPolynomial | None" = None,
                      name: str | None = None) -> PositivityReport:
    """The report on an expansion: NOT_NONNEGATIVE with its negative terms
    as witnesses, else the given verdict."""
    witnesses = [(key, c) for key, c in expansion.items() if c < 0]
    return PositivityReport(polynomial, expansion,
                            VERDICT_NOT_NONNEGATIVE if witnesses else verdict,
                            witnesses, name=name)


def schur_positivity(expansion: "Expansion", polynomial: "CPolynomial | None" = None,
                     name: str | None = None) -> PositivityReport:
    """The verdict on a Schur expansion: POSITIVE when it is nonzero and
    nonnegative, ZERO when it is zero, else NOT_NONNEGATIVE."""
    verdict = VERDICT_POSITIVE if expansion else VERDICT_ZERO
    return positivity_report(expansion, verdict, polynomial, name)


def certify(p: "CPolynomial", length_bound: int | None = None,
            name: str | None = None) -> PositivityReport:
    """Decide positivity: nonzero with a nonnegative Schur expansion."""
    from .schur import to_schur

    return schur_positivity(to_schur(p, length_bound=length_bound), p, name)


class ThomTableEntry(namedtuple("ThomTableEntry", "name expression codimension")):
    """One classical singularity class: name, printed polynomial, codimension.
    Its polynomial is the parsed c-polynomial, for library callers."""

    __slots__ = ()

    @property
    def polynomial(self) -> "CPolynomial":
        return _entry_polynomial(self.expression)


@cache
def _entry_polynomial(expression: str) -> "CPolynomial":
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


def hook_contains(lam: Partition, n: int, m: int) -> bool:
    """Whether lam lies in the (n, m)-hook: every part after the n-th is <= m.

    This is the support region of s_lambda(E - F) when E has rank n and F
    has rank m.  Diagnostic use only; the core algebra never consults it.
    """
    lam = Partition(lam)
    return lam.part(n + 1) <= m


def minimal_hook_rank(expansion: "Expansion") -> int:
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
    """Certify every built-in classical entry as certify EXPR does, its
    expression evaluated on the Schur basis; all must come out POSITIVE."""
    from .schureval import evaluate_schur

    return [schur_positivity(evaluate_schur(entry.expression), name=entry.name)
            for entry in CLASSICAL_THOM_TABLE]


def table_payload(table: str) -> dict:
    """What thom-verify prints for a built-in table: each report with the
    fields its table entry adds, and whether all are nonnegative."""
    if table == "classical":
        reports = verify_thom_table()
        extras = [{"expression": entry.expression, "codimension": entry.codimension,
                   "coefficient_sum": number_text(report.expansion.coefficient_sum()),
                   "hook_rank": minimal_hook_rank(report.expansion)}
                  for entry, report in zip(CLASSICAL_THOM_TABLE, reports)]
    elif table == "lagrangian":
        from .legendrian import LEGENDRIAN_TABLE, verify_lagrangian_table

        reports = verify_lagrangian_table()
        extras = [{"bold_expression": entry.lagrangian_expression}
                  for entry in LEGENDRIAN_TABLE]
    else:
        from .legendrian import LEGENDRIAN_TABLE, verify_legendrian_table

        reports = verify_legendrian_table()
        extras = [{"codimension": entry.codimension, "degree": report.expansion.degree}
                  for entry, report in zip(LEGENDRIAN_TABLE, reports)]
    entries = [{**report.to_json(), **extra} for report, extra in zip(reports, extras)]
    return {"table": table, "entries": entries,
            "all_nonnegative": all(report.nonnegative for report in reports)}

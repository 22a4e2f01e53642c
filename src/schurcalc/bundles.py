"""Schur classes of Schur bundles, in the Schur basis of the bundle.

s_mu(S^lam(E)) is computed in formal variables: the Chern roots of
S^lam(E) are the weights of the semistandard tableaux of shape lam, s_mu of
them is a symmetric polynomial, and greedy peeling by its leading monomials
reads off its Schur coefficients.  Only the schur-bundle command loads this
module.
"""

from functools import cache
from math import comb

from .partitions import Partition
from .pieri import OPEN, Expansion, column_peel, pieri_build
from .schur import monomial_step


@cache
def ssyt_weights(shape: Partition, n: int) -> tuple[tuple[int, ...], ...]:
    """Weights of the semistandard tableaux of the shape with entries in
    1..n, cached; the GL(n) character support.

    Cells are filled row by row.  The entry in row i of a column of height h
    is at most n - (h - 1 - i), which leaves room for the entries below it,
    so every branch ends in a tableau.
    """
    shape = Partition(shape)
    if len(shape) > n:
        return ()
    heights = shape.conjugate()
    cells = [(i, j) for i, p in enumerate(shape) for j in range(p)]
    grid = [[0] * p for p in shape]
    counts = [0] * n
    out: list[tuple[int, ...]] = []

    def fill(k: int):
        if k == len(cells):
            out.append(tuple(counts))
            return
        i, j = cells[k]
        lo = max(grid[i][j - 1] if j else 1, grid[i - 1][j] + 1 if i else 1)
        for v in range(lo, n - heights[j] + i + 2):
            grid[i][j] = v
            counts[v - 1] += 1
            fill(k + 1)
            counts[v - 1] -= 1

    fill(0)
    return tuple(out)


# Schur polynomials as SSYT sums in formal variables x_1..x_N, with greedy
# peeling by lexicographically-leading monomials (for Schur bundle classes).

XPoly = dict[tuple[int, ...], int]


@cache
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
    rows = len(lam)
    num = den = 1
    for i, a in enumerate(lam):
        for j in range(i + 1, rows):
            num *= a - lam[j] + j - i
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
    rest = Partition(p - shift for p in lam)
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
    weights = ssyt_weights(rest, n) if rest else ((0,) * m,)
    # e_k of the roots for k <= |mu|, the coefficients of prod (1 + r t);
    # s_mu is a polynomial in these through c_k = e_k
    elementary: list[XPoly] = [{(0,) * m: 1}] + [{} for _ in range(mu.weight)]
    for w in weights:
        # the root of a tableau weight w is the linear form sum_i (w_i + shift) x_i
        root = {tuple(int(j == i) for j in range(m)): w[i] + shift
                for i in range(m) if w[i] + shift}
        for k in range(mu.weight, 0, -1):
            xp_accumulate(elementary[k], xp_mul(elementary[k - 1], root))
    # s_mu on c-monomials, each an ascending tuple of indices, by the dual
    # Jacobi-Trudi build that schur_dual_jt wraps
    acc: XPoly = {}
    for mono, coeff in pieri_build((), mu, monomial_step, None, column_peel, OPEN).items():
        term: XPoly = {(0,) * m: 1}
        for k in mono:
            term = xp_mul(term, elementary[k])
        xp_accumulate(acc, term, coeff)
    return Expansion(peel_schur(acc, m), degree=mu.weight)

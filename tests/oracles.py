"""Independent reference computations for the test suite.

None of this is production code: each function recomputes by a different
route something that schurcalc computes by its Pieri folds.

* The Schur expansion and Littlewood-Richardson products by brute-force
  monomial expansion in formal variables, with greedy peeling.
* Both Jacobi-Trudi determinants of s_lambda(E - F), expanded by
  memoized minors: the h-form |s_{lambda_i - i + j}(E - F)| and the dual
  form in the elementary-type classes of the conjugate.
* Q-tilde polynomials by the odd/even length recurrences, the two rules
  that the one Pfaffian expansion of schurcalc.qtilde replaced.
* H*(LG(n)) reduction by solving the degree slice of the presentation
  exactly with schurcalc.linalg, and the degreewise dimension identity
  that certifies the presentation.
"""

from __future__ import annotations

from functools import lru_cache

from schurcalc.linalg import matrix_rank, solve_exact
from schurcalc.partitions import Partition, enumerate_partitions
from schurcalc.polynomial import (
    FAMILY_C,
    FAMILY_CPRIME,
    CPolynomial,
    Monomial,
    monomial_key,
    truncate_family,
)
from schurcalc.positivity import XPoly, peel_schur, schur_monomials, xp_accumulate, xp_mul
from schurcalc.qtilde import _q_single, qtilde_pair
from schurcalc.rings import LagrangianRing
from schurcalc.schur import BundleSymbol, Expansion, elementary_super, supersymmetric_s

# -- monomials ----------------------------------------------------------------


@lru_cache(maxsize=None)
def monomials_of_degree(d: int, family: str, max_index: int | None = None) -> tuple[Monomial, ...]:
    """All monomials of weighted degree d in one c-family, in the global order.

    A monomial corresponds to the partition of d formed by its indices;
    max_index bounds the parts.
    """
    out = []
    for lam in enumerate_partitions(d, max_part=max_index):
        exps: dict[int, int] = {}
        for part in lam.parts:
            exps[part] = exps.get(part, 0) + 1
        out.append(tuple(((family, idx), e) for idx, e in sorted(exps.items())))
    out.sort(key=monomial_key)
    return tuple(out)


# -- Schur functions by determinants --------------------------------------------


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


def schur_jt_h_form(lam: Partition, E: BundleSymbol = BundleSymbol(),
                    F: BundleSymbol | None = None) -> CPolynomial:
    """s_lambda(E - F) as the determinant |s_{lambda_i - i + j}(E - F)|."""
    lam = Partition(lam)
    size = len(lam)
    rows = [[supersymmetric_s(lam.parts[i] - (i + 1) + (j + 1), E, F)
             for j in range(size)] for i in range(size)]
    return poly_det(rows)


def schur_jt_dual_form(lam: Partition, E: BundleSymbol = BundleSymbol(),
                       F: BundleSymbol | None = None) -> CPolynomial:
    """s_lambda(E - F) as the conjugate determinant in elementary-type classes.

    With E the plain c family and no F this is |c_{mu_i - i + j}|, mu the
    conjugate of lambda: the raw-generator polynomial of schur_dual_jt.
    """
    mu = Partition(lam).conjugate()
    size = len(mu)
    rows = [[elementary_super(mu.parts[i] - (i + 1) + (j + 1), E, F)
             for j in range(size)] for i in range(size)]
    return poly_det(rows)


# -- Schur and LR expansions in formal variables --------------------------------


def lr_oracle(lam: Partition, mu: Partition, bound: int = 8) -> Expansion:
    """Littlewood-Richardson product by brute-force monomial expansion.

    Expands both factors as SSYT sums in N = |lam| + |mu| variables,
    multiplies, and peels.  Must agree with lr_multiply.
    """
    lam, mu = Partition(lam), Partition(mu)
    total = lam.weight + mu.weight
    if total > bound:
        raise ValueError(f"total weight {total} exceeds the oracle bound {bound}")
    if total == 0:
        return Expansion({Partition(): 1}, degree=0)
    n = total
    a: XPoly = dict(schur_monomials(lam, n))
    b: XPoly = dict(schur_monomials(mu, n))
    return Expansion(peel_schur(xp_mul(a, b), n), degree=total)


def elementary_xpoly(i: int, n: int) -> XPoly:
    """e_i(x_1..x_n); zero when i > n."""
    if i == 0:
        return {(0,) * n: 1}
    if i > n:
        return {}
    return dict(schur_monomials(Partition((1,) * i), n))


def to_schur_oracle(p: CPolynomial, nvars: int | None = None) -> Expansion:
    """Independent Schur expansion: substitute c_i -> e_i(x) and peel.

    Uses as many formal variables as the degree, which is faithful for
    every partition of that weight.
    """
    d = p.homogeneous_degree()
    if d is None:
        return Expansion({}, degree=None)
    n = nvars if nvars is not None else max(d, 1)
    acc: XPoly = {}
    for mono, coeff in p.terms.items():
        term: XPoly = {(0,) * n: 1}
        for (family, idx), e in mono:
            if family not in (FAMILY_C, FAMILY_CPRIME):
                raise ValueError("oracle expects a c-type polynomial")
            for _ in range(e):
                term = xp_mul(term, elementary_xpoly(idx, n))
        xp_accumulate(acc, term, coeff)
    return Expansion(peel_schur(acc, n), degree=d)


# -- Q-tilde by the odd/even length recurrences -------------------------------


@lru_cache(maxsize=None)
def qtilde_two_rules(mu: Partition) -> CPolynomial:
    """Q_mu by the odd- and even-length recurrences with positional removal.

    Odd length: Q_mu = sum_p (-1)^p Q_{mu_p} Q_{mu without mu_p} (p from 0).
    Even length: Q_mu = sum_{p>=1} (-1)^{p-1} Q_{mu_0, mu_p} Q_{mu without
    mu_0 and mu_p}.  Empty, single and pair indices are the base cases.
    """
    parts = Partition(mu).parts
    length = len(parts)
    if length == 0:
        return CPolynomial.one()
    if length == 1:
        return _q_single(parts[0])
    if length == 2:
        return qtilde_pair(parts[0], parts[1])
    total = CPolynomial.zero()
    if length % 2 == 1:
        for p in range(length):
            term = _q_single(parts[p]) * qtilde_two_rules(Partition(parts[:p] + parts[p + 1:]))
            total = total + (term if p % 2 == 0 else -term)
    else:
        for p in range(1, length):
            rest = Partition(parts[1:p] + parts[p + 1:])
            term = qtilde_pair(parts[0], parts[p]) * qtilde_two_rules(rest)
            total = total + (term if p % 2 == 1 else -term)
    return total


# -- H*(LG(n)) by linear solves -------------------------------------------------


def ideal_generator(ring: LagrangianRing, i: int) -> CPolynomial:
    """The relation Q_{i,i} of LG(n) truncated to c_1..c_n."""
    if not 1 <= i <= ring.n:
        raise ValueError(f"ideal generators are indexed 1..{ring.n}")
    return truncate_family(qtilde_pair(i, i), FAMILY_C, ring.n)


def _ideal_columns(ring: LagrangianRing, d: int) -> list[CPolynomial]:
    """The degree-d slice of the ideal: monomial multiples of the relations."""
    cols = []
    for i in range(1, ring.n + 1):
        rest = d - 2 * i
        if rest < 0:
            continue
        gen = ideal_generator(ring, i)
        for mono in monomials_of_degree(rest, FAMILY_C, max_index=ring.n):
            cols.append(CPolynomial.from_monomial(mono) * gen)
    return cols


def lg_reduce_by_solve(ring: LagrangianRing, p: CPolynomial,
                       degree: int | None = None) -> Expansion:
    """Q-tilde basis expansion of p modulo the relations, by a linear solve.

    Solves p = sum a_mu Q_mu + (ideal slice) exactly; the a_mu block must
    be unique and integral.  degree is the degree of a zero p.
    """
    d = ring._degree(p, degree)
    if p.is_zero():
        return Expansion({}, degree=d, key=ring.key)
    basis = ring.basis(d)
    all_cols = [ring.basis_polynomial(mu) for mu in basis] + _ideal_columns(ring, d)
    monos = monomials_of_degree(d, FAMILY_C, max_index=ring.n)
    matrix = [[col.coefficient(mono) for col in all_cols] for mono in monos]
    rhs = [p.coefficient(mono) for mono in monos]
    solution = solve_exact(matrix, rhs, unique_block=(0, len(basis)))
    values = solution.values[:len(basis)]
    if any(v.denominator != 1 for v in values):
        raise ValueError(f"non-integral basis coordinates {values}")
    coeffs = {mu: v.numerator for mu, v in zip(basis, values)}
    return Expansion(coeffs, degree=d, key=ring.key)


def dimension_identity(ring: LagrangianRing, d: int) -> dict[str, int]:
    """Degreewise certificate: #monomials = #basis + rank(ideal slice)."""
    monos = monomials_of_degree(d, FAMILY_C, max_index=ring.n)
    ideal_cols = _ideal_columns(ring, d)
    if ideal_cols:
        rank = matrix_rank([[col.coefficient(m) for col in ideal_cols] for m in monos])
    else:
        rank = 0
    return {"monomials": len(monos), "basis": len(ring.basis(d)), "ideal_rank": rank}

"""Independent reference computations for the test suite.

None of this is production code: each function recomputes by a different
route something that schurcalc computes by its Pieri folds.

* The Schur expansion and Littlewood-Richardson products by brute-force
  monomial expansion in formal variables, with greedy peeling.
* The dual-form (conjugate) Jacobi-Trudi determinant of s_lambda(E - F).
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
    poly_det,
    truncate_family,
)
from schurcalc.qtilde import qtilde_pair
from schurcalc.rings import LagrangianRing
from schurcalc.schur import (
    BundleSymbol,
    Expansion,
    XPoly,
    elementary_super,
    peel_schur,
    schur_monomials,
    xp_accumulate,
    xp_mul,
)

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


# -- Schur functions ------------------------------------------------------------


def schur_jt_dual_form(lam: Partition, E: BundleSymbol = BundleSymbol(),
                       F: BundleSymbol | None = None) -> CPolynomial:
    """s_lambda(E - F) as the conjugate determinant in elementary-type classes.

    Agrees with schur_jt; an independent cross-check of the two
    determinantal presentations.
    """
    mu = Partition(lam).conjugate()
    size = len(mu)
    rows = [[elementary_super(mu.parts[i] - (i + 1) + (j + 1), E, F)
             for j in range(size)] for i in range(size)]
    return poly_det(rows)


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

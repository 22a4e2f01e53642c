"""Independent reference computations for the test suite.

None of this is production code: each function recomputes by a different
route something that schurcalc computes by its Pieri folds, or is a
reference identity that no schurcalc command needs.

* Partitions up to a weight, the canonical text of a syntax tree, and
  simultaneous substitution of generators by polynomials.
* The supersymmetric layer: s_lambda(E - F) for bundle symbols E and F,
  by reading c_i as s_(1^i)(E - F) in s_lambda, and its split over
  products s_alpha(E) . s_beta(F*).  Without F it only re-derives plain
  classes: schur_jt(lam) is schur_dual_jt(lam), complete_from_elementary(k)
  is schur_dual_jt((k,)) and elementary_super(k) is c_k.
* The Schur expansion and Littlewood-Richardson products by brute-force
  monomial expansion in formal variables, and Schur-bundle classes by the
  Jacobi-Trudi determinant in the complete symmetric functions of the
  bundle's roots, all with greedy peeling.
* Both Jacobi-Trudi determinants of s_lambda(E - F), expanded by
  memoized minors: the h-form |s_{lambda_i - i + j}(E - F)| and the dual
  form in the elementary-type classes of the conjugate.
* The Pieri steps by a recursion over the first row: vertical strips,
  and the Q-tilde step of Pragacz-Ratajski.
* c-monomials folded by pieri_build's memo of their prefixes, peeled
  index by index, as monomial_fold did before it took one step per factor.
* The ring input check by one pass over a polynomial's terms, as
  SchubertRing._degree made it before it read the polynomial's own
  families, generators and homogeneous degree.
* The Giambelli representatives of Schubert classes, basis_polynomial,
  which no command builds.
* Q-tilde polynomials by the odd/even length recurrences, the two rules
  that the one Pfaffian expansion of schurcalc.qtilde replaced.
* H*(LG(n)) reduction by solving the degree slice of the presentation
  exactly with schurcalc.linalg, and the degreewise dimension identity
  that certifies the presentation.
* Ring expressions by the c-polynomial route: the expression's
  c-polynomial truncated to the rank and reduced by the ring, which the
  gr/lg reduce and integrate commands took before they evaluated
  homogeneous input on the ring's Schubert basis.
* Whole-ring and whole-expansion checks that no command runs: a ring's
  whole basis, the whole-ring pairing check, nonnegativity of an
  expansion, and Schur's count of shifted standard tableaux, which gives
  the degree of LG(n).
* Legendrian expressions read through v-polynomials: each basis class
  carries a CPolynomial in v1 and v2, split into exponents at the end.
* The Thom polynomials of the Morin classes A_d between equal dimensions,
  solved from Rimanyi's restriction equations, and the restriction of a
  c-polynomial to a singularity that those equations read.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, prod

from schurcalc import parsing
from schurcalc.bundles import (XPoly, peel_schur, schur_monomials, ssyt_weights, xp_accumulate,
                               xp_mul)
from schurcalc.legendrian import LegendrianClass
from schurcalc.linalg import matrix_rank, solve_exact
from schurcalc.parsing import Basis, Expression, Gen, Num, Pow, Prod, Sum
from schurcalc.partitions import Partition, StrictPartition, degree_list
from schurcalc.pieri import FOLD_FACTOR_BUDGET, Expansion, pieri_build
from schurcalc.polynomial import (
    FAMILY_C,
    FAMILY_CPRIME,
    FAMILY_V1,
    FAMILY_V2,
    CPolynomial,
    Generator,
    Monomial,
    generator_degree,
    generator_name,
    monomial_key,
    truncate_family,
)
from schurcalc.qtilde import _q_single, qtilde, qtilde_pair
from schurcalc.pairing import check_pairing_budget, enumerate_partitions, is_dual_permutation
from schurcalc.rings import GrassmannianRing, LagrangianRing
from schurcalc.schur import schur_dual_jt, to_schur
from schurcalc.schureval import expression_reading

# -- partitions and expressions -----------------------------------------------


@lru_cache(maxsize=None)
def partition_count(d: int) -> int:
    """p(d), the number of partitions of d; 0 for negative d."""
    counts = [1] + [0] * d
    for part in range(1, d + 1):
        for n in range(part, d + 1):
            counts[n] += counts[n - part]
    return counts[d] if d >= 0 else 0


def partitions_up_to(d: int) -> list[Partition]:
    """All partitions of weight at most d in the global order."""
    out: list[Partition] = []
    for k in range(d + 1):
        out.extend(enumerate_partitions(k))
    return out


def to_text(expr: Expression) -> str:
    """Canonical text form; parsing it back yields an equal AST."""
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Gen):
        if expr.family in (FAMILY_V1, FAMILY_V2):
            return expr.family
        return f"{expr.family}{expr.index}"
    if isinstance(expr, Basis):
        return f"{expr.kind}[{','.join(str(p) for p in expr.parts)}]"
    if isinstance(expr, Pow):
        base = to_text(expr.base)
        if isinstance(expr.base, (Sum, Prod, Pow)):
            base = f"({base})"
        return f"{base}^{expr.exponent}"
    if isinstance(expr, Prod):
        pieces = []
        for f in expr.factors:
            text = to_text(f)
            if isinstance(f, Sum):
                text = f"({text})"
            pieces.append(text)
        return "*".join(pieces)
    if isinstance(expr, Sum):
        out = to_text(expr.first)
        for op, term in expr.rest:
            out += f" {op} {to_text(term)}"
        return out
    raise TypeError(f"not an expression node: {expr!r}")


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


# -- substitution -------------------------------------------------------------


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
                term = term * CPolynomial({((g, e),): 1})
        result = result + term
    return result


# -- the supersymmetric layer: s_lambda(E - F) --------------------------------


class BundleSymbol(namedtuple("BundleSymbol", "family rank", defaults=(FAMILY_C, None))):
    """An abstract vector bundle: a generator family plus an optional rank.

    rank None means unbounded (the universal, stable case); a finite rank
    forces c_k = 0 for k above it.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if self.family not in (FAMILY_C, FAMILY_CPRIME):
            raise ValueError(f"bundle family must be c or c', got {self.family!r}")
        if self.rank is not None and self.rank < 0:
            raise ValueError("rank must be nonnegative")


def chern_class(E: BundleSymbol, k: int) -> CPolynomial:
    """c_k(E): 1 for k = 0, zero for k < 0 or beyond the rank."""
    if k < 0:
        return CPolynomial.zero()
    if k == 0:
        return CPolynomial.one()
    if E.rank is not None and k > E.rank:
        return CPolynomial.zero()
    return CPolynomial.gen(E.family, k)


@lru_cache(maxsize=None)
def complete_from_elementary(k: int, E: BundleSymbol = BundleSymbol()) -> CPolynomial:
    """s_k(E) = h_k in the Chern generators of E: s_(k) with c_i = 0 above the rank."""
    if k < 0:
        return CPolynomial.zero()
    h = schur_dual_jt(Partition([k]), E.family)
    return h if E.rank is None else truncate_family(h, E.family, E.rank)


@lru_cache(maxsize=None)
def supersymmetric_s(k: int, E: BundleSymbol = BundleSymbol(),
                     F: BundleSymbol | None = None) -> CPolynomial:
    """s_k(E - F), the degree-k class of the series prod(1-fz)/prod(1-ez).

    Convolution of the Chern classes of F against the complete classes of E:
    s_k(E - F) = sum_{j=0..k} (-1)^j c_j(F) h_{k-j}(E).
    """
    if k < 0:
        return CPolynomial.zero()
    if F is None:
        return complete_from_elementary(k, E)
    if F.family == E.family:
        raise ValueError("E and F must use distinct generator families")
    total = CPolynomial.zero()
    for j in range(k + 1):
        cj = chern_class(F, j)
        if cj.is_zero():
            continue
        term = cj * complete_from_elementary(k - j, E)
        total = total + (term if j % 2 == 0 else -term)
    return total


@lru_cache(maxsize=None)
def elementary_super(k: int, E: BundleSymbol = BundleSymbol(),
                     F: BundleSymbol | None = None) -> CPolynomial:
    """s_(1^k)(E - F) = (-1)^k s_k(F - E), the degree-k class of c(E) / c(F)."""
    if F is None or k <= 0:
        return chern_class(E, k)
    value = supersymmetric_s(k, F, E)
    return value if k % 2 == 0 else -value


@lru_cache(maxsize=None)
def schur_jt(lam: Partition, E: BundleSymbol = BundleSymbol(),
             F: BundleSymbol | None = None) -> CPolynomial:
    """s_lambda(E - F): s_lambda with c_i read as s_(1^i)(E - F), which is
    the Jacobi-Trudi determinant |s_{lambda_i - i + j}(E - F)| unexpanded."""
    return supersymmetrize(schur_dual_jt(Partition(lam)), E, F)


# -- s_lambda(E - F) split over s_alpha(E) . s_beta(F*) -----------------------


def supersymmetrize(p: CPolynomial, E: BundleSymbol, F: BundleSymbol) -> CPolynomial:
    """Transport a c-polynomial along c_i -> s_{(1^i)}(E - F).

    Under this substitution the Schur expansion of p becomes its expansion
    over the supersymmetric Schur functions s_lambda(E - F) with the same
    coefficients.
    """
    indices = {g[1] for g in p.generators()}
    assignment = {(FAMILY_C, i): elementary_super(i, E, F) for i in indices}
    return specialize(p, assignment)


def super_split_poly(p: CPolynomial) -> dict[tuple[Partition, Partition], int]:
    """Expand a (c, c')-polynomial over the basis s_alpha(E) . s_beta(F*).

    E is carried by the c family and F by the c' family; s_beta(F*) is the
    Schur determinant in the dual classes c_j(F*) = (-1)^j c_j(F).
    """
    if p.is_zero():
        return {}
    d = p.homogeneous_degree()
    groups: dict[tuple, dict] = {}
    for mono, coeff in p.terms.items():
        cpart = tuple((g, e) for g, e in mono if g[0] == FAMILY_C)
        fpart = tuple((g, e) for g, e in mono if g[0] == FAMILY_CPRIME)
        if len(cpart) + len(fpart) != len(mono):
            raise ValueError("splitting expects c/c' generators only")
        groups.setdefault(fpart, {})[cpart] = coeff
    by_alpha: dict[Partition, CPolynomial] = {}
    for fmono, cterms in groups.items():
        for alpha, coeff in to_schur(CPolynomial(cterms)).items():
            piece = CPolynomial({fmono: coeff})
            by_alpha[alpha] = by_alpha.get(alpha, CPolynomial.zero()) + piece
    out: dict[tuple[Partition, Partition], int] = {}
    for alpha, r_alpha in by_alpha.items():
        # c'_j -> (-1)^j c'_j is a global sign on the homogeneous slice
        sign = -1 if (d - alpha.weight) % 2 else 1
        for beta, coeff in to_schur(r_alpha).items():
            value = sign * coeff
            if value:
                out[(alpha, beta)] = value
    return out


def super_split(lam: Partition, rank_E: int | None = None,
                rank_F: int | None = None) -> dict[tuple[Partition, Partition], int]:
    """Write s_lambda(E - F) as sum b_{alpha,beta} s_alpha(E) . s_beta(F*).

    The pure-E slice beta = {} recovers the supersymmetric coefficients;
    in particular b_{lambda, {}} = 1.
    """
    E = BundleSymbol(FAMILY_C, rank_E)
    F = BundleSymbol(FAMILY_CPRIME, rank_F)
    return super_split_poly(schur_jt(Partition(lam), E, F))


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


@lru_cache(maxsize=None)
def vertical_strip_rows(lam: tuple[int, ...], k: int,
                        bound: tuple[int | None, int | None]) -> tuple:
    """pieri.vertical_strips by a recursion once per row: the first row
    takes no box or one (if below the cols side), and the rest of lam is a
    strip problem in one row fewer, capped by that row when it took none.
    Its depth grows with the length of lam."""
    rows, cols = bound
    if k == 0:
        return ((lam, 1),)
    if not lam:
        return (((1,) * k, 1),) if rows is None or k <= rows else ()
    head, tail = lam[0], lam[1:]
    below = None if rows is None else rows - 1
    out = [((head,) + mu, 1) for mu, _ in vertical_strip_rows(tail, k, (below, head))]
    if cols is None or head < cols:
        out += [((head + 1,) + mu, 1)
                for mu, _ in vertical_strip_rows(tail, k - 1, (below, None))]
    return tuple(out)


@lru_cache(maxsize=None)
def qtilde_pieri_rows(lam: tuple[int, ...], k: int, bound: tuple[int]) -> tuple:
    """schubert.qtilde_pieri_step by a recursion once per row: the first row
    takes a boxes within the cap, and the rest of lam is a step in one row
    fewer, capped by that row (one less if it took none); the first row
    splits when it grew and the next part stays under its old part.  Its
    depth grows with the length of lam."""
    (cap,) = bound
    if not lam:
        return (((k,) if k else (), 1),) if k <= cap else ()
    head, tail = lam[0], lam[1:]
    out = []
    for a in range(min(k, cap - head) + 1):
        for mu, mult in qtilde_pieri_rows(tail, k - a, (head if a else head - 1,)):
            split = a and (mu[0] if mu else 0) < head
            out.append(((head + a,) + mu, 2 * mult if split else mult))
    return tuple(out)


def index_peel(mu: tuple[int, ...], bound) -> tuple:
    """A c-monomial (indices ascending) is its last index times the rest."""
    return mu[-1], mu[:-1], ((mu, 1),)


def prefix_memo_fold(mono, step, bound: tuple) -> dict[tuple[int, ...], int]:
    """The fold of monomial_fold before it took one step per factor.

    Coefficients of the c-monomial mono on the basis of step, in bound: the
    dict of pieri_build's memo itself, shared, so it is never changed.  A
    monomial of more than FOLD_FACTOR_BUDGET factors is rejected before its
    indices are listed.  It keeps no memo of its own: pieri_build's holds
    the fold, and a ring keeps each monomial's class in its table."""
    factors = sum(e for _, e in mono)
    if factors > FOLD_FACTOR_BUDGET:
        raise ValueError(f"a monomial of {factors} factors exceeds the fold budget "
                         f"of {FOLD_FACTOR_BUDGET} factors")
    indices = tuple(g[1] for g, e in mono for _ in range(e))
    # warm every 200th prefix so the build's recursion stays shallow
    for stop in range(200, len(indices), 200):
        pieri_build((), indices[:stop], step, bound, index_peel, None)
    return pieri_build((), indices, step, bound, index_peel, None)


def one_pass_degree(ring, p: CPolynomial) -> int | None:
    """SchubertRing._degree before it read the polynomial's own families,
    generators and homogeneous degree.

    One pass over the terms gathers what the checks read; they fail in
    the order: a family other than c, then c_k above the rank, then mixed
    degrees, then a degree above the top degree.  A zero p has the degree
    None.
    """
    rank, foreign, above, degrees = ring.rank, False, set(), set()
    for mono in p.terms:
        d = 0
        for (family, k), e in mono:
            if family != FAMILY_C:
                foreign = True
            elif k > rank:
                above.add(k)
            d += k * e
        degrees.add(d)
    if foreign:
        raise ValueError(f"{ring.label} expects a polynomial in the c family only")
    if above:
        raise ValueError(f"{ring.label} expects generators c_1..c_{rank}; "
                         f"got {sorted(above)}")
    if len(degrees) > 1:
        raise ValueError(f"polynomial is not homogeneous (degrees {degree_list(degrees)})")
    return ring.check_degree(degrees.pop() if degrees else None)


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


def schur_bundle_oracle(lam: Partition, mu: Partition, n: int) -> Expansion:
    """s_mu(S^lam E) for E of rank n, in all n variables: the Jacobi-Trudi
    determinant det(h_{mu_i - i + j}) of the linear forms sum_i w_i x_i, one
    per tableau weight w of lam, peeled.  The h_k are the coefficients of
    prod 1/(1 - r t) over the roots r."""
    lam, mu = Partition(lam), Partition(mu)
    complete: list[XPoly] = [{(0,) * n: 1}] + [{} for _ in range(mu.weight)]
    for w in ssyt_weights(lam, n):
        root = {tuple(int(j == i) for j in range(n)): wi for i, wi in enumerate(w) if wi}
        for k in range(1, mu.weight + 1):
            xp_accumulate(complete[k], xp_mul(complete[k - 1], root))
    rows = len(mu)
    acc: XPoly = {}
    for perm in permutations(range(rows)):
        term: XPoly = {(0,) * n: 1}
        for i, j in enumerate(perm):
            k = mu[i] - i + j
            term = xp_mul(term, complete[k] if k >= 0 else {})
        inversions = sum(a > b for a, b in combinations(perm, 2))
        xp_accumulate(acc, term, -1 if inversions % 2 else 1)
    return Expansion(peel_schur(acc, n), degree=mu.weight)


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


def basis_polynomial(ring, index) -> CPolynomial:
    """The Giambelli representative of a Schubert class of ring: s_lam in
    c_1..c_r in Gr(r, n), Q_mu truncated to c_1..c_n in LG(n)."""
    index = ring.basis_index(index)
    if isinstance(ring, GrassmannianRing):
        return schur_dual_jt(index).truncated(FAMILY_C, ring.r)
    return qtilde(index).truncated(FAMILY_C, ring.n)


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
            cols.append(CPolynomial({mono: 1}) * gen)
    return cols


def lg_reduce_by_solve(ring: LagrangianRing, p: CPolynomial,
                       degree: int | None = None) -> Expansion:
    """Q-tilde basis expansion of p modulo the relations, by a linear solve.

    Solves p = sum a_mu Q_mu + (ideal slice) exactly; the a_mu block must
    be unique and integral.  degree is the degree of a zero p.
    """
    if p.is_zero():
        return Expansion({}, degree=ring.check_degree(degree), key=ring.key)
    d = ring._degree(p)
    basis = ring.basis(d)
    all_cols = [basis_polynomial(ring, mu) for mu in basis] + _ideal_columns(ring, d)
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


# -- ring expressions by the c-polynomial route ---------------------------------


def reduce_tautological(ring, p: CPolynomial, degree: int | None = None) -> Expansion:
    """p read in the Chern classes of the tautological subbundle, reduced by
    the ring: c_k above the rank is zero there, so p is truncated first, and
    when that kills p the zero class keeps the degree p had.  degree is the
    degree of a zero p."""
    q = truncate_family(p, FAMILY_C, ring.rank)
    if q.terms:
        return ring.reduce(q)
    if p.terms:
        degree = p.homogeneous_degree() if p.is_homogeneous() else None
    return Expansion({}, degree=ring.check_degree(degree), key=ring.key)


def ring_expression_oracle(ring, text: str) -> Expansion:
    """The class of an expression in the ring by the c-polynomial route: the
    degree the syntax tree shows (none for terms of different degrees) is
    checked against the top degree first, and is the degree of a zero
    value; a family other than c in a term without a literal 0 factor is
    rejected next; then the expression's c-polynomial goes to
    reduce_tautological."""
    reading = expression_reading(parsing.parse(text))
    degree = ring.check_degree(reading.lo if reading.lo == reading.hi else None)
    if reading.families - {FAMILY_C}:
        raise ValueError(f"{ring.label} expects a polynomial in the c family only")
    return reduce_tautological(ring, parsing.evaluate_text(text), degree)


# -- whole-ring and whole-expansion checks ---------------------------------------


def all_basis(ring) -> list[Partition]:
    """Every basis index of the ring, degree by degree."""
    return [lam for d in range(ring.top_degree + 1) for lam in ring.basis(d)]


def pairing_is_dual_permutation(ring) -> bool:
    """Whole-ring check that every pairing matrix realizes the duality."""
    check_pairing_budget(ring)
    return all(is_dual_permutation(ring, *ring.pairing_matrix(d))
               for d in range(ring.top_degree + 1))


def is_nonnegative(x: Expansion) -> bool:
    """Whether no coefficient of x is negative."""
    return all(c >= 0 for c in x.coefficients.values())


def shifted_tableaux_count(lam):
    """g(lam) by Schur's formula: |lam|!/prod lam_i! * prod_{i<j} (lam_i-lam_j)/(lam_i+lam_j)."""
    value = Fraction(factorial(sum(lam)), prod(factorial(part) for part in lam))
    for a, b in combinations(lam, 2):
        value *= Fraction(a - b, a + b)
    assert value.denominator == 1
    return value.numerator


# -- Legendrian expressions through v-polynomials ------------------------------------


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


def _legendrian_atom(expr) -> _LegendrianValue:
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


def legendrian_parse_by_vpolynomials(text: str, n: int) -> LegendrianClass:
    """schurcalc.legendrian.legendrian_parse, with each basis class carrying
    its v-part as a CPolynomial until the end."""
    value = parsing.evaluate(parsing.parse(text), _legendrian_atom)
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


# -- Morin classes by Rimanyi's restriction equations --------------------------
#
# A singularity is (source, target), the torus weights of its germ, each an
# (a, b) pair for the character a*alpha + b*beta; at it c(f*TY - TX)
# restricts to prod (1 + t) / prod (1 + s).  A class in alpha and beta is an
# XPoly on exponent pairs.


def morin_germ(j: int) -> tuple:
    """A_j between equal dimensions: x -> x^(j+1) on a line of weight alpha,
    so c restricts to (1 + (j+1) alpha) / (1 + alpha); the unfolding
    parameters' weights cancel."""
    return ((1, 0),), ((j + 1, 0),)


# I_2,2: (x, y) -> (x^2, y^2) with weights alpha and beta, and unfolding
# weights 2 alpha - beta and 2 beta - alpha on both sides
I22_GERM = (((1, 0), (0, 1), (2, -1), (-1, 2)), ((2, 0), (0, 2), (2, -1), (-1, 2)))


def restriction(p: CPolynomial, germ: tuple) -> dict:
    """The homogeneous c-polynomial p restricted to a singularity: c_k read as
    the degree-k part of prod (1 + t) / prod (1 + s) over its target and
    source weights, 1 / (1 + s) as the series sum_k (-s)^k cut at deg p."""
    d = p.homogeneous_degree() or 0
    source, target = germ
    total: XPoly = {(0, 0): 1}
    for weights, sign, terms in ((target, 1, 1), (source, -1, d)):
        for a, b in weights:
            form = {key: sign * v for key, v in (((1, 0), a), ((0, 1), b)) if v}
            factor, power = {(0, 0): 1}, {(0, 0): 1}
            for _ in range(terms):
                power = xp_mul(power, form)
                xp_accumulate(factor, power)
            total = xp_mul(total, factor)
    chern = [{key: v for key, v in total.items() if sum(key) == k} for k in range(d + 1)]
    out: XPoly = {}
    for mono, coeff in p.terms.items():
        term = {(0, 0): coeff}
        for (_, k), e in mono:
            for _ in range(e):
                term = xp_mul(term, chern[k])
        xp_accumulate(out, term)
    return out


def morin_thom_polynomial(d: int) -> CPolynomial:
    """The Thom polynomial of A_d between equal dimensions, 1 <= d <= 4, as
    the unique solution of Rimanyi's restriction equations on the p(d)
    c-monomials of degree d: it vanishes at A_1 .. A_(d-1), and at I_2,2
    when d = 4, and is the normal Euler class d! alpha^d at A_d.  These are
    all the singularities of codimension at most 4."""
    if not 1 <= d <= 4:
        raise ValueError(f"the restriction equations here reach codimension 4, not {d}")
    monomials = monomials_of_degree(d, FAMILY_C)
    conditions = [(morin_germ(j), {}) for j in range(1, d)]
    if d == 4:
        conditions.append((I22_GERM, {}))
    conditions.append((morin_germ(d), {(d, 0): factorial(d)}))
    matrix, rhs = [], []
    for germ, value in conditions:
        columns = [restriction(CPolynomial({mono: 1}), germ) for mono in monomials]
        for a in range(d + 1):
            matrix.append([column.get((a, d - a), 0) for column in columns])
            rhs.append(value.get((a, d - a), 0))
    solution = solve_exact(matrix, rhs, unique_block=(0, len(monomials)))
    return CPolynomial(dict(zip(monomials, solution.as_integers())))

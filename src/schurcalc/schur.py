"""Schur and supersymmetric Schur functions as exact c-polynomials.

Two determinantal presentations are implemented: the Jacobi-Trudi form in
the complete classes s_k(E - F), and the dual form in raw c-generators
indexed by the conjugate partition.  Since c_k = s_(1^k), a monomial in the
c-generators is expanded in the Schur basis by the dual Pieri rule, one
vertical strip per factor, in a memoized integer fold; bounding the fold to
an r x (n-r) box gives reduction in H*(Gr(r, n)).  The fold takes its Pieri
step as an argument, so H*(LG(n)) reduces on it too (see rings.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partitions import Partition, ssyt_weights
from .polynomial import (
    FAMILY_C,
    FAMILY_CPRIME,
    CPolynomial,
    poly_det,
    specialize,
)


@dataclass(frozen=True)
class BundleSymbol:
    """An abstract vector bundle: a generator family plus an optional rank.

    rank None means unbounded (the universal, stable case); a finite rank
    forces c_k = 0 for k above it.
    """

    family: str = FAMILY_C
    rank: int | None = None

    def __post_init__(self):
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
    """s_k(E) = h_k in the Chern generators of E.

    Defined by the recurrence sum_{i=0..k} (-1)^i c_i h_{k-i} = [k = 0],
    i.e. the coefficient extraction from 1 / sum c_i (-z)^i.
    """
    if k < 0:
        return CPolynomial.zero()
    if k == 0:
        return CPolynomial.one()
    total = CPolynomial.zero()
    for i in range(1, k + 1):
        ci = chern_class(E, i)
        if ci.is_zero():
            continue
        term = ci * complete_from_elementary(k - i, E)
        total = total + (term if i % 2 == 1 else -term)
    return total


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
def schur_jt(lam: Partition, E: BundleSymbol = BundleSymbol(),
             F: BundleSymbol | None = None) -> CPolynomial:
    """s_lambda(E - F) as the determinant |s_{lambda_i - i + j}(E - F)|."""
    lam = Partition(lam)
    size = len(lam)
    rows = [[supersymmetric_s(lam.parts[i] - (i + 1) + (j + 1), E, F)
             for j in range(size)] for i in range(size)]
    return poly_det(rows)


@lru_cache(maxsize=None)
def elementary_super(k: int, E: BundleSymbol = BundleSymbol(),
                     F: BundleSymbol | None = None) -> CPolynomial:
    """The elementary-type class s_{(1^k)}(E - F); the dual-form entry."""
    if k < 0:
        return CPolynomial.zero()
    return schur_jt(Partition((1,) * k), E, F)


@lru_cache(maxsize=None)
def schur_dual_jt(lam: Partition, family: str = FAMILY_C) -> CPolynomial:
    """s_lambda in raw c-generators: |c_{mu_i - i + j}| with mu the conjugate.

    This is the defining polynomial of the Schur basis used everywhere for
    expansions; no rank bound is applied.
    """
    mu = Partition(lam).conjugate()
    size = len(mu)

    def entry(i: int, j: int) -> CPolynomial:
        k = mu.parts[i] - (i + 1) + (j + 1)
        if k < 0:
            return CPolynomial.zero()
        if k == 0:
            return CPolynomial.one()
        return CPolynomial.gen(family, k)

    rows = [[entry(i, j) for j in range(size)] for i in range(size)]
    return poly_det(rows)


class Expansion:
    """A homogeneous integer combination of basis classes.

    Coefficients map partitions of a common weight to nonzero integers; the
    key type is Partition for the Schur basis and StrictPartition for the
    Q-tilde basis, and every key is checked against it.  The degree is kept
    explicitly so the zero expansion of a known degree integrates and
    serializes unambiguously.
    """

    def __init__(self, coefficients: dict, degree: int | None = None,
                 key: type[Partition] = Partition):
        cleaned = {key(lam): coeff for lam, coeff in coefficients.items() if coeff}
        weights = {lam.weight for lam in cleaned}
        if len(weights) > 1:
            raise ValueError(f"mixed weights in expansion: {sorted(weights)}")
        if weights:
            common = weights.pop()
            if degree is not None and degree != common:
                raise ValueError(f"stated degree {degree} != common weight {common}")
            degree = common
        self.coefficients = cleaned
        self.degree = degree
        self.key = key

    def items(self) -> list[tuple[Partition, int]]:
        return sorted(self.coefficients.items(), key=lambda kv: kv[0].sort_key())

    def get(self, lam, default: int = 0) -> int:
        return self.coefficients.get(self.key(lam), default)

    def coefficient_sum(self) -> int:
        return sum(self.coefficients.values())

    def is_zero(self) -> bool:
        return not self.coefficients

    def negatives(self) -> list[tuple[Partition, int]]:
        return [(lam, c) for lam, c in self.items() if c < 0]

    def is_nonnegative(self) -> bool:
        return not self.negatives()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Expansion) and self.key is other.key
                and self.degree == other.degree
                and self.coefficients == other.coefficients)

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def to_json(self) -> list:
        return [{self.key.json_key: list(lam.parts), "coeff": str(c)}
                for lam, c in self.items()]

    def __repr__(self) -> str:
        body = ", ".join(f"{tuple(lam.parts)}: {c}" for lam, c in self.items())
        return f"Expansion({{{body}}}, degree={self.degree}, key={self.key.__name__})"


@lru_cache(maxsize=None)
def vertical_strip_step(lam: tuple[int, ...], k: int,
                        bound: tuple[int | None, int | None]) -> tuple:
    """(mu, 1) for mu/lam a vertical strip of k boxes in the rows x cols box.

    bound is (rows, cols); None leaves a side open.  This is s_(1^k) . s_lam
    by the dual Pieri rule.  Dropping the classes outside the box is exact
    in H*(Gr(rows, rows + cols)), because they span an ideal there.
    """
    rows, cols = bound
    if k == 0:
        return ((lam, 1),)
    if not lam:
        return (((1,) * k, 1),) if rows is None or k <= rows else ()
    head, tail = lam[0], lam[1:]
    below = None if rows is None else rows - 1
    out = [((head,) + mu, 1) for mu, _ in vertical_strip_step(tail, k, (below, head))]
    if cols is None or head < cols:
        out += [((head + 1,) + mu, 1)
                for mu, _ in vertical_strip_step(tail, k - 1, (below, None))]
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_fold(indices: tuple[int, ...], step, bound: tuple) -> dict[tuple[int, ...], int]:
    """Expansion of c_{i1}...c_{im} (indices ascending) by one Pieri step per factor.

    The expansion of the monomial is that of its prefix with step(lam, k,
    bound) applied to every term lam for the last index k.  Each ring keys
    the memo on its module-level step and its bound tuple, so rings of the
    same shape share it.
    """
    if not indices:
        return {(): 1}
    out: dict[tuple[int, ...], int] = {}
    for lam, coeff in _monomial_fold(indices[:-1], step, bound).items():
        for mu, mult in step(lam, indices[-1], bound):
            out[mu] = out.get(mu, 0) + coeff * mult
    return out


def fold_coefficients(p: CPolynomial, step, bound: tuple) -> dict[tuple[int, ...], int]:
    """Coefficients of p on the basis that step multiplies into, within bound.

    Generator families are ignored: c_k and c'_k both stand for the k-th
    generator.
    """
    total: dict[tuple[int, ...], int] = {}
    for mono, coeff in p.terms.items():
        indices = tuple(g[1] for g, e in mono for _ in range(e))
        # warm every 200th prefix so the fold's recursion stays shallow
        for stop in range(200, len(indices), 200):
            _monomial_fold(indices[:stop], step, bound)
        for lam, c in _monomial_fold(indices, step, bound).items():
            total[lam] = total.get(lam, 0) + coeff * c
    return total


def to_schur(p: CPolynomial, length_bound: int | None = None) -> Expansion:
    """Expand a homogeneous single-family polynomial over the Schur basis.

    Each monomial is expanded by the dual Pieri fold, so the work follows
    the size of the output.  The expansion over all partitions of the
    degree is unique; when a length bound is given, any support on longer
    partitions makes the input inexpressible and raises.
    """
    families = p.families()
    if len(families) > 1:
        raise ValueError(f"polynomial mixes generator families: {sorted(families)}")
    fam = families.pop() if families else FAMILY_C
    if fam not in (FAMILY_C, FAMILY_CPRIME):
        raise ValueError("Schur expansion is defined for c-type families only")
    d = p.homogeneous_degree()
    if d is None:
        return Expansion({}, degree=None)
    coeffs = fold_coefficients(p, vertical_strip_step, (None, None))
    if length_bound is not None:
        long = [lam for lam, c in coeffs.items() if c and len(lam) > length_bound]
        if long:
            raise ValueError(
                f"not expressible with length bound {length_bound}: "
                f"support on {sorted(long)}"
            )
    return Expansion(coeffs, degree=d)


def from_schur(x: Expansion, family: str = FAMILY_C) -> CPolynomial:
    """Inverse of to_schur: substitute the defining determinants and expand."""
    total = CPolynomial.zero()
    for lam, coeff in x.items():
        total = total + coeff * schur_dual_jt(lam, family)
    return total


def lr_multiply(lam: Partition, mu: Partition) -> Expansion:
    """Littlewood-Richardson expansion of s_lam . s_mu via the Schur kernel."""
    product = schur_dual_jt(Partition(lam)) * schur_dual_jt(Partition(mu))
    return to_schur(product)


# ---------------------------------------------------------------------------
# Schur polynomials as SSYT sums in formal variables x_1..x_N, with greedy
# peeling by lexicographically-leading monomials (for Schur bundle classes).
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Supersymmetric splitting: s_lambda(E - F) over products s_alpha(E).s_beta(F*)
# ---------------------------------------------------------------------------


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
            piece = CPolynomial.from_monomial(fmono, coeff)
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

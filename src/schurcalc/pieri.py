"""The Pieri core: expansions over a basis, a memoized build on them, and
the fold of a c-monomial.

pieri_build builds b_start . X_mu with a Pieri step c_k . b_lam, peeling
X_mu as c_k . X_nu less its other strips.  With the dual Pieri step
(c_k = s_(1^k) adds vertical k-strips) it works in the Schur basis and, in
an r x (n-r) box, reduces in H*(Gr(r, n)); with the Q-tilde step of
schubert.py it works in H*(LG(n)).  monomial_fold multiplies classes by a
c-monomial, one step per factor: to_schur folds each monomial of a
c-polynomial from 1, the basis evaluation each pending monomial on its
classes, and a ring each monomial once, into its table of monomial classes.
A fold calls plain steps, since it meets each (lam, k) once; pieri_build
memoizes the steps it takes, which its peels meet again and again.

Every command that computes in a basis loads this module, so it holds only
the Expansion type, the steps, the peels, the build and the fold.  It works
on tuples of parts and reads only partitions.py.
"""

from functools import cache

from .partitions import Partition, number_text

# The most factors a c-monomial folds, so the most Pieri steps one fold
# takes; each step's work follows the classes it multiplies.
FOLD_FACTOR_BUDGET = 5000

# the bound of a step or peel with both sides of the box open
OPEN = (None, None)


@cache
def basis_key(key: type[Partition], index) -> Partition:
    """key(index), built and checked once per distinct index and then shared;
    index is a tuple of parts or a Partition."""
    return key(index)


class Expansion:
    """A homogeneous integer combination of basis classes.

    Coefficients map partitions of a common weight to nonzero integers; the
    key type is Partition for the Schur basis and StrictPartition for the
    Q-tilde basis, and every key is checked against it, once per distinct
    key through basis_key; trusted builds an expansion on keys its caller
    has already checked, and copy shares them.  The degree is kept
    explicitly so the zero expansion of a known degree integrates and
    serializes unambiguously.
    """

    def __init__(self, coefficients: dict, degree: int | None = None,
                 key: type[Partition] = Partition):
        cleaned = {basis_key(key, lam): coeff for lam, coeff in coefficients.items() if coeff}
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

    @classmethod
    def trusted(cls, coefficients, degree, key) -> "Expansion":
        """The expansion on the dict coefficients itself, whose keys the
        caller built as checked instances of key, all of weight degree, and
        whose coefficients are nonzero, so nothing is checked or copied."""
        x = object.__new__(cls)
        x.coefficients, x.degree, x.key = coefficients, degree, key
        return x

    def copy(self) -> "Expansion":
        """This expansion on a new dict: dict() keeps the stored hashes of the
        keys, so none is hashed or checked again, and a change to the copy
        leaves this expansion as it was."""
        return self.trusted(dict(self.coefficients), self.degree, self.key)

    def items(self) -> list[tuple[Partition, int]]:
        return sorted(self.coefficients.items(), key=lambda kv: kv[0].sort_key())

    def get(self, lam, default: int = 0) -> int:
        # an instance of the key type was checked when it was built
        return self.coefficients.get(lam if type(lam) is self.key else self.key(lam), default)

    def coefficient_sum(self) -> int:
        return sum(self.coefficients.values())

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other) -> bool:
        return (isinstance(other, Expansion) and self.key is other.key
                and self.degree == other.degree
                and self.coefficients == other.coefficients)

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def to_json(self, items=None) -> list:
        return [{self.key.json_key: list(lam), "coeff": number_text(c)}
                for lam, c in (self.items() if items is None else items)]

    def __repr__(self) -> str:
        body = ", ".join(f"{tuple(lam)}: {c}" for lam, c in self.items())
        return f"Expansion({{{body}}}, degree={self.degree}, key={self.key.__name__})"


def vertical_strips(lam: tuple[int, ...], k: int,
                    bound: tuple[int | None, int | None]) -> tuple:
    """(mu, 1) for mu/lam a vertical strip of k boxes in the rows x cols box.

    bound is (rows, cols); None leaves a side open.  This is s_(1^k) . s_lam
    by the dual Pieri rule.  Dropping the classes outside the box is exact
    in H*(Gr(rows, rows + cols)), because they span an ideal there.

    A vertical strip adds its boxes to the top rows of each block of equal
    parts, any number of them up to the block's size, and the rest as new
    rows of one box.  Only the top block can meet the cols side, and only
    the new rows the rows side.  So the strips are built block by block in
    a loop, with no recursion, and a column of any length is one block.
    They come in the order of the row-by-row recursion that
    tests/oracles.py keeps.
    """
    rows, cols = bound
    if not k:
        return ((lam, 1),)
    n = len(lam)
    # the parts of mu so far and the boxes left to place; a head with none
    # left is already the whole of mu
    partial = [((), k)]
    start = 0
    while start < n:
        part, end = lam[start], start + 1
        while end < n and lam[end] == part:
            end += 1
        size = end - start
        most = 0 if not start and cols is not None and part >= cols else size
        grown = []
        for head, left in partial:
            if not left:
                grown.append((head, 0))
                continue
            for j in range(min(most, left) + 1):
                if j == left:
                    grown.append((head + (part + 1,) * j + lam[start + j:], 0))
                else:
                    grown.append((head + (part + 1,) * j + (part,) * (size - j), left - j))
        partial = grown
        start = end
    room = None if rows is None else rows - n
    return tuple((head + (1,) * left, 1) for head, left in partial
                 if not left or room is None or left <= room)


@cache
def column_peel(mu: tuple[int, ...], bound: tuple) -> tuple:
    """k = l(mu) and nu = mu less its first column: c_k . s_nu sums s_kappa over
    the vertical k-strips kappa / nu, the others below mu in dominance."""
    nu = tuple(p - 1 for p in mu if p > 1)
    return len(mu), nu, vertical_strips(nu, len(mu), bound)


@cache
def built_step(step, lam: tuple[int, ...], k: int, bound: tuple) -> tuple:
    return step(lam, k, bound)


@cache
def pieri_build(start: tuple[int, ...], mu: tuple[int, ...], step, bound: tuple | None,
                peel, peel_bound: tuple) -> dict[tuple[int, ...], int]:
    """Coefficients of b_start . X_mu on the basis that step multiplies, in bound.

    peel(mu, peel_bound) is (k, nu, strips) with c_k . X_nu = sum m . X_kappa
    over the strips, X_mu among them with m = 1.  It and built_step memoize
    on module-level functions and bounds, so rings of one shape share them.
    """
    if not mu:
        return {start: 1}
    k, nu, strips = peel(mu, peel_bound)
    out: dict[tuple[int, ...], int] = {}
    for lam, coeff in pieri_build(start, nu, step, bound, peel, peel_bound).items():
        for kappa, mult in built_step(step, lam, k, bound):
            out[kappa] = out.get(kappa, 0) + coeff * mult
    for kappa, mult in strips:
        if kappa != mu:
            for lam, coeff in pieri_build(start, kappa, step, bound, peel, peel_bound).items():
                out[lam] = out.get(lam, 0) - mult * coeff
    return {lam: coeff for lam, coeff in out.items() if coeff}


def monomial_fold(mono, step, bound: tuple, classes: dict | None = None) -> dict:
    """Coefficients of classes times the c-monomial mono on the basis of step,
    in bound, one step per factor; classes is the class 1 when None and is
    left as it was.  A monomial of more than FOLD_FACTOR_BUDGET factors is
    rejected before any step."""
    factors = sum(e for _, e in mono)
    if factors > FOLD_FACTOR_BUDGET:
        raise ValueError(f"a monomial of {number_text(factors, 'the factor count')} factors "
                         f"exceeds the fold budget of {FOLD_FACTOR_BUDGET} factors")
    out = {(): 1} if classes is None else classes
    for g, e in mono:
        for _ in range(e):
            folded = {}
            for lam, c in out.items():
                for kappa, m in step(lam, g[1], bound):
                    folded[kappa] = folded.get(kappa, 0) + c * m
            out = folded
    return {lam: c for lam, c in out.items() if c}

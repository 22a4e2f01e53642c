"""Schubert classes of Gr(r, n) and LG(n) that need no ring: the labels, the
Poincare duals of the indices, the Q-tilde Pieri step and the restriction
of a Schubert class of G_n(V) to LG(V).

rings.py builds its rings on these.  The gr/lg dual and lg restrict
commands read only this module and the Pieri core, so they compile no ring
class.  restrict is a function of n and lam: LagrangianRing binds it as its
restrict method, and the restrict command calls it on its arguments, which
name n as a ring does.  Both read the memo of restriction, keyed by
(n, lam): a repeated restriction is one lookup and returns a copy, and a
bad index fails each time, since only a checked one enters the memo.
"""

from functools import cache

from .partitions import TERM_BUDGET, Partition, StrictPartition, check_term_budget
from .pieri import Expansion, basis_key, built_step, column_peel, pieri_build


def grassmannian_label(r: int, n: int) -> str:
    if not 0 < r < n:
        raise ValueError("require 0 < r < n")
    return f"Gr({r},{n})"


def lagrangian_label(n: int) -> str:
    if n < 1:
        raise ValueError("require n >= 1")
    return f"LG({n})"


def staircase(n: int) -> StrictPartition:
    """The strict partition (n, n-1, ..., 1); the point class index of LG(n)."""
    return StrictPartition(range(n, 0, -1))


def check_part_budget(parts: int) -> None:
    """Reject a dual index of more than TERM_BUDGET parts before it is built."""
    if parts > TERM_BUDGET:
        raise ValueError(f"the dual index exceeds the output budget: "
                         f"{parts} > {TERM_BUDGET} parts")


def rectangle_dual(lam: Partition, r: int, n: int) -> Partition:
    """Poincare dual index inside the r x (n-r) rectangle.

    Pads lam with zeros to length r, reverses, and complements each part in
    n - r.  Involution; weights of a partition and its dual sum to r(n-r).
    """
    lam = Partition(lam)
    cols = n - r
    if not lam.fits_rectangle(r, cols):
        raise ValueError(f"{lam!r} does not fit in the {r}x{cols} rectangle")
    check_part_budget(r - lam.count(cols))
    return Partition(cols - lam.part(r - i) for i in range(r))


def strict_complement(mu: StrictPartition, n: int) -> StrictPartition:
    """Poincare dual index on LG(n): complement the parts of mu in {1..n}."""
    mu = StrictPartition(mu)
    if mu and mu[0] > n:
        raise ValueError(f"{mu!r} is not contained in the staircase of {n}")
    check_part_budget(n - len(mu))
    present = set(mu)
    return StrictPartition([k for k in range(n, 0, -1) if k not in present])


def qtilde_pieri_step(lam: tuple[int, ...], k: int, bound: tuple[int]) -> tuple:
    """(mu, 2^e) for c_k . Q_lam = sum 2^e Q_mu in H*(LG(n)), with bound (n,).

    The Pieri rule of Pragacz-Ratajski: mu runs over the strict partitions
    with mu_1 <= n and |mu| = |lam| + k such that mu/lam is a horizontal
    strip of the ordinary (unshifted) diagram, and e counts the j with
    mu_{j+1} < lam_j < mu_j.

    The parts of mu are chosen row by row, top to bottom, in a loop with no
    recursion and no memo, as vertical_strips builds its strips.  With
    left boxes still to place, row j takes a part m of at least lam_j and
    at least left, since the rows below hold at most lam_j more, and at
    most lam_j + left and the cap the row above leaves it: lam_(j-1) if
    that row grew, one less if not.  A row that grew splits when the part
    below it stays under its old part.  A sentinel part 0 places the one
    possible new row.  The pairs are those of the recursion over the first
    row that tests/oracles.py keeps, in another order.
    """
    (cap,) = bound
    if not k:
        return ((lam, 1),) if max(lam, default=0) <= cap else ()
    out = []
    # the parts of mu so far, the boxes left, 2^e and the next row's cap;
    # a head with no box left is the whole of mu once the rest of lam
    # follows, and its last row, which grew, splits
    partial = [((), k, 1, cap)]
    above = None
    for j, part in enumerate(lam + (0,)):
        grown = []
        for head, left, mult, top in partial:
            # conditional expressions, not min and max: a call per head
            # costs a quarter of the step
            end = part + left
            for m in range(part if part > left else left, (top if top < end else end) + 1):
                # the row above grew if it left its old part as the cap
                split = 2 * mult if m < top == above else mult
                if m < end:
                    grown.append((head + (m,), end - m, split, part - (m == part)))
                else:
                    out.append((head + (m,) + lam[j + 1:], 2 * split if part else split))
        partial = grown
        above = part
    return tuple(out)


def row_peel(mu: tuple[int, ...], bound: tuple[int]) -> tuple:
    """k = mu_1, nu = mu less it: c_k . Q_nu has Q_mu once, other kappa_1 > k."""
    return mu[0], mu[1:], built_step(qtilde_pieri_step, mu[1:], mu[0], bound)


def restrict(lg, lam: Partition) -> Expansion:
    """Pullback of the ambient Schubert class X^lam along LG(V) in G_n(V),
    where lg names n: a LagrangianRing, or the lg command's arguments.
    The result is a copy of the class in restriction's memo, where a
    Partition and the tuple of its parts are one key."""
    return restriction(lg.n, lam if isinstance(lam, tuple) else tuple(lam)).copy()


@cache
def restriction(n: int, lam: tuple[int, ...]) -> Expansion:
    """The pullback of X^lam to LG(n), memoized on (n, lam) once its checks
    have passed, for as long as the process runs; the memo is unbounded.

    The tautological subbundles agree under the inclusion, so the class
    is s_lam, built from 1 by column peels within the output budget; above
    the top degree the cohomology vanishes and it is the zero expansion.
    """
    lam = basis_key(Partition, lam)
    if not lam.fits_rectangle(n, n):
        raise ValueError(f"{lam!r} is not a Schubert index of G_{n}(V)")
    coeffs = {}
    if lam.weight <= n * (n + 1) // 2:
        check_term_budget(lam.weight)
        coeffs = pieri_build((), lam, qtilde_pieri_step, (n,), column_peel, (n, n))
    return Expansion(coeffs, degree=lam.weight, key=StrictPartition)

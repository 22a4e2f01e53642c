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
from .pieri import Expansion, basis_key, column_peel, pieri_build


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
    mu_{j+1} < lam_j < mu_j.  Its recursion drops the first row, capping the
    next by it, and calls the memo _qtilde_tails of its tails, as row_peel does.
    """
    (cap,) = bound
    if not lam:
        return (((k,) if k else (), 1),) if k <= cap else ()
    head, tail = lam[0], lam[1:]
    out = []
    for a in range(min(k, cap - head) + 1):
        for mu, mult in _qtilde_tails(tail, k - a, (head if a else head - 1,)):
            split = a and (mu[0] if mu else 0) < head
            out.append(((head + a,) + mu, 2 * mult if split else mult))
    return tuple(out)


_qtilde_tails = cache(qtilde_pieri_step)


def row_peel(mu: tuple[int, ...], bound: tuple[int]) -> tuple:
    """k = mu_1, nu = mu less it: c_k . Q_nu has Q_mu once, other kappa_1 > k."""
    return mu[0], mu[1:], _qtilde_tails(mu[1:], mu[0], bound)


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
    if lam.weight > n * (n + 1) // 2:
        return Expansion({}, degree=lam.weight, key=StrictPartition)
    check_term_budget(lam.weight)
    return Expansion(pieri_build((), lam, qtilde_pieri_step, (n,), column_peel, (n, n)),
                     degree=lam.weight, key=StrictPartition)

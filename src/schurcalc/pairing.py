"""gr/lg pairing: the Poincare pairing of a whole ring, degree by degree.

Only a whole-ring pairing lists every class of a degree, so the enumerators
of the bases, the pairing budget and the check that a pairing matrix is the
duality live here, with the command.  A library process that reduces,
multiplies, restricts and integrates never compiles them;
GrassmannianRing.basis and LagrangianRing.basis import the enumerators when
they run.
"""

from .partitions import Partition, StrictPartition
from .rings import GrassmannianRing, LagrangianRing

# The most pairing-matrix cells a whole-ring pairing builds, summed over the
# degrees; a larger ring is rejected before any basis is enumerated.
PAIRING_BUDGET = 75000


def enumerate_partitions(d: int, max_part: int | None = None,
                         max_length: int | None = None) -> list[Partition]:
    """All partitions of weight d within the bounds, largest-first.

    The order is reverse lexicographic, the fixed global order used for
    every transition matrix and serialization.
    """
    if d < 0:
        raise ValueError("weight must be nonnegative")
    first = d if max_part is None else min(d, max_part)
    length = d if max_length is None else max_length

    def build(remaining: int, cap: int, slots: int, prefix: list[int]):
        if remaining == 0:
            yield Partition(prefix)
            return
        if slots == 0:
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            yield from build(remaining - p, p, slots - 1, prefix)
            prefix.pop()

    return list(build(d, first, length, []))


def enumerate_strict_partitions(d: int, max_part: int) -> list[StrictPartition]:
    """All strict partitions of weight d with parts at most max_part, largest-first."""

    def build(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            yield StrictPartition(prefix)
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            yield from build(remaining - p, p - 1, prefix)
            prefix.pop()

    return list(build(d, max_part, []))


def classes_exceed(ring, budget: int) -> bool:
    """Whether the ring has more than budget classes: 2^n for LG(n), with n
    capped so a huge n builds no huge number, and C(n, r) for Gr(r, n), read
    off C(n, i) for i up to min(r, n-r), which increase."""
    if isinstance(ring, LagrangianRing):
        return 2 ** min(ring.n, budget.bit_length()) > budget
    count = 1
    for i in range(min(ring.r, ring.cols)):
        count = count * (ring.n - i) // (i + 1)
        if count > budget:
            return True
    return False


def check_pairing_budget(ring) -> None:
    """Reject a ring whose pairing matrices hold more than PAIRING_BUDGET
    cells, sum_d |B_d| |B_top-d|, before any basis is enumerated.  That sum
    is sum_d |B_d|^2, at least the number of classes, which is checked first
    so that a huge ring is rejected at once."""
    if not classes_exceed(ring, PAIRING_BUDGET):
        sizes = ring.basis_sizes()
        if sum(a * b for a, b in zip(sizes, reversed(sizes))) <= PAIRING_BUDGET:
            return
    raise ValueError(f"{ring.label} exceeds the pairing budget: "
                     f"more than {PAIRING_BUDGET} matrix cells")


def is_dual_permutation(ring, rows, cols, matrix) -> bool:
    """Whether a pairing matrix of ring pairs each row with its dual and nothing else."""
    for lam, values in zip(rows, matrix):
        partner = ring.dual(lam)
        if any(value != int(mu == partner) for mu, value in zip(cols, values)):
            return False
    return True


def run(args, pretty: bool) -> int:
    """gr/lg pairing: each degree's matrix, and whether it is the duality."""
    from .cli import emit

    ring = GrassmannianRing(args.r, args.n) if args.command == "gr" else LagrangianRing(args.n)
    check_pairing_budget(ring)
    degrees = []
    for d in range(ring.top_degree + 1):
        rows, cols, matrix = ring.pairing_matrix(d)
        degrees.append({"degree": d, "rows": [list(p) for p in rows],
                        "cols": [list(p) for p in cols], "matrix": matrix,
                        "is_dual_permutation": is_dual_permutation(ring, rows, cols, matrix)})
    ok = all(block["is_dual_permutation"] for block in degrees)
    emit({"ring": ring.label, "degrees": degrees, "is_dual_permutation": ok}, pretty)
    return 0

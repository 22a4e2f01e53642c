"""Exact rational linear algebra: elimination, solving and ranks.

No floating point anywhere; all entries are fractions.Fraction (or ints,
which are promoted).  No schurcalc module imports this one: every
production path is an integer Pieri fold.  It is the reference solver of
the tests (tests/oracles.py solves the LG(n) presentation with it), and
the benchmark's tracer still reads rref and solve_exact by name, so it
stays in the package until the benchmark drops its linalg.* metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

RationalMatrix = list[list[Fraction]]


class InconsistentSystemError(ValueError):
    """The system A x = b has no solution; carries the offending row index."""

    def __init__(self, row: int):
        super().__init__(f"inconsistent system: row {row} reduces to 0 = nonzero")
        self.row = row


class NonUniqueSolutionError(ValueError):
    """Uniqueness was demanded on a coordinate block but does not hold."""


def _promote(matrix) -> RationalMatrix:
    return [[Fraction(x) for x in row] for row in matrix]


def rref(matrix) -> tuple[RationalMatrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    m = _promote(matrix)
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def matrix_rank(matrix) -> int:
    return len(rref(matrix)[1])


@dataclass
class Solution:
    """Exact solution of A x = b with uniqueness information."""

    values: list[Fraction]
    unique: bool
    free_columns: list[int]

    def as_integers(self) -> list[int]:
        out = []
        for v in self.values:
            if v.denominator != 1:
                raise ValueError(f"solution coordinate {v} is not an integer")
            out.append(v.numerator)
        return out


def solve_exact(matrix, rhs, unique_block: tuple[int, int] | None = None) -> Solution:
    """Solve A x = b exactly over the rationals.

    Free coordinates are set to zero.  Raises InconsistentSystemError when no
    solution exists.  When unique_block = (start, stop) is given, raises
    NonUniqueSolutionError unless the coordinates in [start, stop) are the
    same in every solution.
    """
    a = _promote(matrix)
    b = [Fraction(x) for x in rhs]
    if len(a) != len(b):
        raise ValueError("matrix and right-hand side sizes differ")
    ncols = len(a[0]) if a else 0
    augmented = [row + [bv] for row, bv in zip(a, b)]
    reduced, pivots = rref(augmented)
    if ncols in pivots:
        bad = pivots.index(ncols)
        raise InconsistentSystemError(bad)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    values = [Fraction(0)] * ncols
    for row_index, col in enumerate(pivots):
        values[col] = reduced[row_index][ncols]
    if unique_block is not None:
        start, stop = unique_block
        for f in free:
            if start <= f < stop:
                raise NonUniqueSolutionError(
                    f"free coordinate {f} lies in the uniqueness block"
                )
            for row_index, col in enumerate(pivots):
                if start <= col < stop and reduced[row_index][f] != 0:
                    raise NonUniqueSolutionError(
                        f"coordinate {col} depends on free coordinate {f}"
                    )
    return Solution(values=values, unique=not free, free_columns=free)


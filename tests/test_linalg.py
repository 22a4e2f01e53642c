import random
from fractions import Fraction

import pytest

from schurcalc.linalg import (
    InconsistentSystemError,
    NonUniqueSolutionError,
    matrix_rank,
    rref,
    solve_exact,
)


def multiply_matrix_vector(matrix, vector):
    return [sum(a * x for a, x in zip(row, vector)) for row in matrix]


def test_identity_returns_rhs():
    a = [[1, 0], [0, 1]]
    sol = solve_exact(a, [3, -5])
    assert sol.values == [3, -5]
    assert sol.unique


def test_back_substitution_example():
    sol = solve_exact([[1, 1], [0, 1]], [3, 1])
    assert sol.values == [2, 1]
    assert sol.unique


def test_inconsistent_system_reports():
    with pytest.raises(InconsistentSystemError):
        solve_exact([[1, 1], [1, 1]], [0, 1])


def test_underdetermined_solution_and_flags():
    sol = solve_exact([[1, 0, 1]], [5])
    assert not sol.unique
    assert sol.free_columns == [1, 2]
    assert sol.values[0] == 5


def test_unique_block_checks():
    # x0 + x2 = 5: x0 depends on the free coordinate x2
    with pytest.raises(NonUniqueSolutionError):
        solve_exact([[1, 0, 1]], [5], unique_block=(0, 1))
    # x0 alone is pinned; x1, x2 are free outside the block
    sol = solve_exact([[1, 0, 0]], [2], unique_block=(0, 1))
    assert sol.values[0] == 2
    # a free coordinate inside the block
    with pytest.raises(NonUniqueSolutionError):
        solve_exact([[0, 0, 1]], [1], unique_block=(0, 2))


def test_solve_then_multiply_reproduces_rhs_exactly():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(n)] for _ in range(m)]
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = multiply_matrix_vector(a, x)
        sol = solve_exact(a, b)
        assert multiply_matrix_vector(a, sol.values) == b


def test_rank_and_rref():
    reduced, pivots = rref([[2, 4], [1, 2]])
    assert pivots == [0]
    assert reduced[0] == [1, 2]
    assert matrix_rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2


def test_solution_as_integers():
    sol = solve_exact([[2, 0], [0, 1]], [4, 3])
    assert sol.as_integers() == [2, 3]
    frac = solve_exact([[2]], [1])
    with pytest.raises(ValueError):
        frac.as_integers()

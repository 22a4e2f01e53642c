from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest

from schurcalc.partitions import Partition, StrictPartition, enumerate_partitions
from schurcalc.polynomial import FAMILY_C, FAMILY_CPRIME, CPolynomial, truncate_family
from schurcalc.rings import GrassmannianRing, LagrangianRing
from schurcalc.schur import (
    BundleSymbol,
    Expansion,
    complete_from_elementary,
    schur_dual_jt,
)

from oracles import (
    dimension_identity,
    ideal_generator,
    lg_reduce_by_solve,
    monomials_of_degree,
    to_schur_oracle,
)


def c(i):
    return CPolynomial.gen(FAMILY_C, i)


# -- Grassmannian ------------------------------------------------------------


def test_gr_reduce_examples():
    gr = GrassmannianRing(2, 4)
    assert gr.reduce(c(1)).coefficients == {Partition([1]): 1}
    h3 = complete_from_elementary(3, BundleSymbol(FAMILY_C, 2))
    assert gr.reduce(h3).is_zero()
    point = truncate_family(schur_dual_jt(Partition([2, 2])), FAMILY_C, 2)
    assert gr.reduce(point).coefficients == {Partition([2, 2]): 1}


def test_gr_reduce_errors():
    gr = GrassmannianRing(2, 4)
    with pytest.raises(ValueError):
        gr.reduce(c(3))  # generator outside c_1..c_r
    with pytest.raises(ValueError):
        gr.reduce(c(1) ** 5)  # degree above the top
    with pytest.raises(ValueError):
        gr.reduce(CPolynomial.gen(FAMILY_CPRIME, 1))


def test_gr_integrate():
    gr = GrassmannianRing(2, 4)
    top = Expansion({Partition([2, 2]): 1})
    assert gr.integrate(top) == 1
    with pytest.raises(ValueError):
        gr.integrate(Expansion({Partition([1]): 1}))


def test_gr_duality_diagonal():
    gr = GrassmannianRing(2, 4)
    for lam in gr.all_basis():
        assert gr.pairing(lam, gr.dual(lam)) == 1


def test_four_lines_through_two_lines_in_space():
    gr = GrassmannianRing(2, 4)
    s1 = gr.basis_polynomial(Partition([1]))
    assert gr.integrate(gr.reduce(s1 ** 4)) == 2


def test_projective_degrees_of_the_rings():
    # top self-intersection of the hyperplane class, derivable entirely
    # inside the ring machinery by iterated products
    for (r, n), expected in [((2, 4), 2), ((2, 5), 5), ((3, 6), 42)]:
        ring = GrassmannianRing(r, n)
        hyper = ring.basis_polynomial(Partition([1]))
        assert ring.integrate(ring.reduce(hyper ** ring.top_degree)) == expected
    for n, expected in [(1, 1), (2, 2), (3, 16)]:
        ring = LagrangianRing(n)
        hyper = ring.basis_polynomial(StrictPartition([1]))
        assert ring.integrate(ring.reduce(hyper ** ring.top_degree)) == expected


def test_gr_reduce_is_ring_map():
    for (r, n) in [(2, 4), (2, 5)]:
        ring = GrassmannianRing(r, n)
        basis = ring.all_basis()
        for lam in basis:
            for mu in basis:
                if lam.weight + mu.weight > ring.top_degree:
                    assert ring.basis_product(lam, mu).is_zero()
                    continue
                product = ring.basis_polynomial(lam) * ring.basis_polynomial(mu)
                assert ring.reduce(product) == ring.basis_product(lam, mu)


def test_gr_basis_round_trip():
    ring = GrassmannianRing(3, 6)
    for lam in ring.all_basis():
        assert ring.reduce(ring.basis_polynomial(lam)).coefficients == {lam: 1}


def test_gr_basis_sizes_symmetric():
    ring = GrassmannianRing(3, 6)
    sizes = [len(ring.basis(d)) for d in range(ring.top_degree + 1)]
    assert sizes == sizes[::-1]
    assert sum(sizes) == 20  # C(6, 3)


def hook_length_count(parts):
    """Standard tableaux of a shape: |lam|! over the product of its hook lengths."""
    hooks = [parts[i] - j + sum(1 for below in parts[i + 1:] if below > j)
             for i in range(len(parts)) for j in range(parts[i])]
    return factorial(sum(parts)) // prod(hooks)


def test_top_power_of_hyperplane_counts_rectangle_tableaux():
    for r, n in [(3, 8), (4, 10), (5, 12)]:
        ring = GrassmannianRing(r, n)
        value = ring.integrate(ring.reduce(c(1) ** ring.top_degree))
        assert value == hook_length_count((n - r,) * r)
    assert hook_length_count((5,) * 3) == 6006
    assert hook_length_count((6,) * 4) == 140229804


def test_pruned_fold_matches_the_oracle():
    # The oracle in r variables gives the full expansion cut to length <= r:
    # s_lam vanishes in r variables exactly when lam has more than r rows,
    # and the remaining s_lam stay independent.
    for n in range(2, 7):
        for r in range(1, n):
            ring = GrassmannianRing(r, n)
            for d in range(ring.top_degree + 1):
                for lam in enumerate_partitions(d, max_part=r):
                    mono = CPolynomial.one()
                    for i in lam.parts:
                        mono = mono * c(i)
                    oracle = to_schur_oracle(mono, nvars=r)
                    kept = {nu: coeff for nu, coeff in oracle.coefficients.items()
                            if nu.fits_rectangle(r, n - r)}
                    assert ring.reduce(mono) == Expansion(kept, degree=d)


# -- Lagrangian --------------------------------------------------------------


def test_lg_reduce_examples():
    lg = LagrangianRing(2)
    assert lg.reduce(c(1) ** 2).coefficients == {StrictPartition([2]): 2}
    assert lg.reduce(c(1) * c(2)).coefficients == {StrictPartition([2, 1]): 1}
    for n in range(1, 5):
        ring = LagrangianRing(n)
        for i in range(1, n + 1):
            if 2 * i > ring.top_degree:
                continue
            assert ring.reduce(ideal_generator(ring, i)).is_zero()
        for mu in ring.all_basis():
            assert ring.reduce(ring.basis_polynomial(mu)).coefficients == \
                ({mu: 1} if mu.parts else {StrictPartition(): 1})


def shifted_tableaux_count(lam):
    """g(lam) by Schur's formula: |lam|!/prod lam_i! * prod_{i<j} (lam_i-lam_j)/(lam_i+lam_j)."""
    value = Fraction(factorial(sum(lam)), prod(factorial(part) for part in lam))
    for a, b in combinations(lam, 2):
        value *= Fraction(a - b, a + b)
    assert value.denominator == 1
    return value.numerator


def test_lg_c1_top_power_counts_shifted_tableaux():
    # c_1 = Q_1, and Q_1^N = sum 2^(N - l(mu)) g(mu) Q_mu over strict mu of N
    expected = [1, 2, 16, 768, 292864, 1100742656, 48608795688960]
    for n in range(1, 8):
        ring = LagrangianRing(n)
        value = ring.integrate(ring.reduce(c(1) ** ring.top_degree))
        staircase = tuple(range(n, 0, -1))
        assert value == 2 ** (ring.top_degree - n) * shifted_tableaux_count(staircase)
        assert value == expected[n - 1]


def test_lg_fold_matches_the_solver():
    # both reductions are linear, so agreement on every monomial up to the
    # top degree covers every class of LG(1..4), basis products included
    for n in range(1, 5):
        ring = LagrangianRing(n)
        for d in range(ring.top_degree + 1):
            for mono in monomials_of_degree(d, FAMILY_C, max_index=n):
                p = CPolynomial.from_monomial(mono)
                assert ring.reduce(p) == lg_reduce_by_solve(ring, p), (n, mono)


def test_lg_reduce_errors():
    lg = LagrangianRing(2)
    with pytest.raises(ValueError):
        lg.reduce(c(3))
    with pytest.raises(ValueError):
        lg.reduce(c(2) ** 2)  # degree 4 > top 3


def test_lg_integrate_examples():
    lg = LagrangianRing(2)
    point = lg.reduce(lg.basis_polynomial(StrictPartition([2, 1])))
    assert lg.integrate(point) == 1
    y1y2 = lg.basis_polynomial(StrictPartition([1])) * \
        lg.basis_polynomial(StrictPartition([2]))
    assert lg.integrate(lg.reduce(y1y2)) == 1
    with pytest.raises(ValueError):
        lg.integrate(lg.reduce(c(1)))


def test_lg_ideal_annihilation_small():
    # every monomial multiple of every relation reduces to zero
    for n in range(1, 4):
        ring = LagrangianRing(n)
        for i in range(1, n + 1):
            gen = ideal_generator(ring, i)
            for d in range(ring.top_degree - 2 * i + 1):
                for mono in monomials_of_degree(d, FAMILY_C, max_index=n):
                    product = CPolynomial.from_monomial(mono) * gen
                    assert ring.reduce(product).is_zero(), (n, i, mono)


def test_lg_dimension_identity():
    for n in range(1, 5):
        ring = LagrangianRing(n)
        for d in range(ring.top_degree + 1):
            info = dimension_identity(ring, d)
            assert info["monomials"] == info["basis"] + info["ideal_rank"], (n, d)


def test_lg_restrict_examples():
    lg = LagrangianRing(2)
    assert lg.restrict(Partition([1])).coefficients == {StrictPartition([1]): 1}
    assert lg.restrict(Partition([1, 1])).coefficients == {StrictPartition([2]): 1}
    assert lg.restrict(Partition([2])).coefficients == {StrictPartition([2]): 1}
    with pytest.raises(ValueError):
        lg.restrict(Partition([3]))


def test_lg_restrict_nonnegative_exhaustive():
    for n in (2, 3):
        ring = LagrangianRing(n)
        for d in range(n * n + 1):
            for lam in enumerate_partitions(d, max_part=n, max_length=n):
                result = ring.restrict(lam)
                assert result.is_nonnegative(), (n, lam)


def test_lg_restrict_above_top_degree_is_zero():
    lg = LagrangianRing(2)
    assert lg.restrict(Partition([2, 2])).is_zero()


def test_lg_pairing_nondual_pairs_vanish():
    ring = LagrangianRing(3)
    for d in range(ring.top_degree + 1):
        rows, cols, matrix = ring.pairing_matrix(d)
        for i, mu in enumerate(rows):
            for j, nu in enumerate(cols):
                expected = 1 if nu == ring.dual(mu) else 0
                assert matrix[i][j] == expected


def test_lg_basis_total_count():
    for n in range(1, 5):
        assert len(LagrangianRing(n).all_basis()) == 2 ** n


# -- shared ring structure ---------------------------------------------------


def test_zero_class_keeps_its_degree():
    for ring, vanishing in [(GrassmannianRing(2, 4), c(3) * c(1)),
                            (LagrangianRing(2), c(3))]:
        d = ring.top_degree
        x = ring.reduce_tautological(vanishing)
        assert x.is_zero() and x.degree == d
        assert ring.integrate(x) == 0
        assert ring.reduce(CPolynomial.zero(), degree=d) == x
        assert ring.reduce(CPolynomial.zero()).degree is None
    with pytest.raises(ValueError, match="exceeds the top degree"):
        LagrangianRing(2).reduce_tautological(c(3) * c(1))


def test_pairing_check_is_per_degree():
    for ring in (GrassmannianRing(2, 4), LagrangianRing(2)):
        assert ring.pairing_is_dual_permutation()
        rows, cols, matrix = ring.pairing_matrix(1)
        assert ring.is_dual_permutation(rows, cols, matrix)
        broken = [[1 - v for v in row] for row in matrix]
        assert not ring.is_dual_permutation(rows, cols, broken)

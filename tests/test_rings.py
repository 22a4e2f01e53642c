from argparse import Namespace
from functools import partial
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurcalc.partitions import Partition, StrictPartition
from schurcalc.pieri import Expansion, monomial_fold
from schurcalc.polynomial import (FAMILY_C, FAMILY_CPRIME, FAMILY_V1, FAMILY_V2, CPolynomial,
                                  truncate_family)
from schurcalc.pairing import (PAIRING_BUDGET, check_pairing_budget, enumerate_partitions,
                               is_dual_permutation)
from schurcalc.rings import GrassmannianRing, LagrangianRing
from schurcalc.schubert import restrict, restriction
from schurcalc.schur import schur_dual_jt

from oracles import (
    BundleSymbol,
    all_basis,
    basis_polynomial,
    complete_from_elementary,
    dimension_identity,
    ideal_generator,
    is_nonnegative,
    lg_reduce_by_solve,
    monomials_of_degree,
    one_pass_degree,
    pairing_is_dual_permutation,
    reduce_tautological,
    shifted_tableaux_count,
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


def test_input_checks_fail_in_their_order():
    # each input fails every check from its own on; the first check decides,
    # on a fresh ring and on a ring whose table of monomial classes already
    # holds each monomial of the inputs that is a class on its own
    cp1 = CPolynomial.gen(FAMILY_CPRIME, 1)
    for make, cases, mixed in (
            (lambda: GrassmannianRing(2, 4), [
                (cp1 * c(3) + c(4) + c(1) ** 5,
                 "Gr(2,4) expects a polynomial in the c family only"),
                (c(4) * c(1) + c(3) + c(3) * c(1) ** 3,
                 "Gr(2,4) expects generators c_1..c_2; got [3, 4]"),
                (c(1) ** 5 + c(2) + c(1) ** 7 + c(1) ** 6 + c(1) ** 8,
                 "polynomial is not homogeneous (degrees [2, 5, 6, ..., 8], 5 in all)"),
                (c(1) ** 2 + c(1) ** 3, "polynomial is not homogeneous (degrees [2, 3])"),
                (c(1) ** 5 - c(2) * c(1) ** 3,
                 "degree 5 exceeds the top degree 4 of Gr(2,4)")],
             c(1) ** 2 + c(1) ** 3),
            (lambda: LagrangianRing(2), [
                (CPolynomial.gen("v1") + c(3) + c(1),
                 "LG(2) expects a polynomial in the c family only"),
                (c(3) + c(1) ** 9, "LG(2) expects generators c_1..c_2; got [3]"),
                (c(1) ** 4 + c(2), "polynomial is not homogeneous (degrees [2, 4])"),
                (c(2) * c(1) + c(1), "polynomial is not homogeneous (degrees [1, 3])"),
                (c(2) ** 2, "degree 4 exceeds the top degree 3 of LG(2)")],
             c(2) * c(1) + c(1))):
        primed = make()
        for p, _ in cases:
            for mono in p.terms:
                try:
                    primed.reduce(CPolynomial({mono: 1}))
                except ValueError:
                    pass
        # the mixed-degree input lies within the top degree, so every one of
        # its monomials is in the primed table
        assert set(mixed.terms) <= set(primed.monomial_classes)
        for ring in (make(), primed):
            for p, message in cases:
                with pytest.raises(ValueError) as info:
                    ring.reduce(p)
                assert str(info.value) == message
            # a zero class has no degree
            assert ring.reduce(CPolynomial.zero()) == Expansion({}, degree=None, key=ring.key)


@st.composite
def _ring_inputs(draw):
    """A maker of a ring, Gr(r,n) with n <= 7 or LG(n) with n <= 4, and a
    polynomial.  The polynomial mixes c, c' and v generators, c_k above the
    rank, several degrees and degrees above the top degree; or is one of c_k
    alone, up to two above the rank, in one degree up to past the top; or is
    an integer sum of the c-polynomials of basis classes of one degree, whose
    monomials cancel in their classes."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 7))
        make = partial(GrassmannianRing, draw(st.integers(1, n - 1)), n)
    else:
        make = partial(LagrangianRing, draw(st.integers(1, 4)))
    ring = make()
    p = CPolynomial.zero()
    kind = draw(st.sampled_from(["mixed", "one degree", "basis classes"]))
    if kind == "mixed":
        gens = st.integers(1, ring.rank + 2).map(c)
        if draw(st.booleans()):
            gens |= st.sampled_from([CPolynomial.gen(FAMILY_CPRIME, 1),
                                     CPolynomial.gen(FAMILY_V1), CPolynomial.gen(FAMILY_V2)])
        for _ in range(draw(st.integers(1, 4))):
            p += draw(st.sampled_from([-2, -1, 1, 2])) * prod(draw(st.lists(gens, max_size=4)),
                                                              start=CPolynomial.one())
    elif kind == "one degree":
        d = draw(st.integers(0, ring.top_degree + 2))
        for _ in range(draw(st.integers(0, 3))):
            term, left = CPolynomial.one(), d
            while left:
                k = draw(st.integers(1, min(left, ring.rank + 2)))
                term, left = term * c(k), left - k
            p += draw(st.sampled_from([-2, -1, 1, 2])) * term
    else:
        top = ring.top_degree
        classes = ring.basis(draw(st.integers(min(2, top), top)))
        for index in draw(st.lists(st.sampled_from(classes), min_size=1, max_size=3)):
            p += draw(st.sampled_from([-2, -1, 1, 2])) * basis_polynomial(ring, index)
    return make, p


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_ring_inputs())
# classes that cancel across monomials: sigma_11 in Gr(2,4), in a sum that
# starts with coefficient 1, one that reaches it later and one without it,
# and the whole of LG(2)'s degree 2
@example((partial(GrassmannianRing, 2, 4), c(1) ** 2 - c(2)))
@example((partial(GrassmannianRing, 2, 4), -c(2) + c(1) ** 2))
@example((partial(GrassmannianRing, 2, 4), 2 * c(1) ** 2 - 2 * c(2)))
@example((partial(LagrangianRing, 2), c(1) ** 2 - 2 * c(2)))
def test_input_checks_match_the_one_pass_oracle(case):
    # on a fresh ring and on one whose table holds each monomial of p that
    # is a class on its own; a good p reduces, twice on each ring, to the
    # sum of its monomials' folds, summed here, with the zeros of a
    # cancelling sum dropped and the common degree kept
    make, p = case
    fresh, primed = make(), make()
    for mono in p.terms:
        try:
            primed.reduce(CPolynomial({mono: 1}))
        except ValueError:
            pass
    try:
        expected = one_pass_degree(fresh, p)
    except ValueError as exc:
        for ring in (fresh, primed):
            with pytest.raises(ValueError) as info:
                ring.reduce(p)
            assert str(info.value) == str(exc)
    else:
        total = {}
        for mono, coeff in p.terms.items():
            for lam, c in monomial_fold(mono, fresh.step, fresh.bound).items():
                total[lam] = total.get(lam, 0) + coeff * c
        total = {lam: c for lam, c in total.items() if c}
        for ring in (fresh, primed, fresh, primed):
            x = ring.reduce(p)
            assert (x.degree, x.key, x.coefficients) == (expected, ring.key, total)
            assert all(type(lam) is ring.key for lam in x.coefficients)


def test_gr_integrate():
    gr = GrassmannianRing(2, 4)
    top = Expansion({Partition([2, 2]): 1})
    assert gr.integrate(top) == 1
    with pytest.raises(ValueError):
        gr.integrate(Expansion({Partition([1]): 1}))


def test_gr_duality_diagonal():
    gr = GrassmannianRing(2, 4)
    for lam in all_basis(gr):
        assert gr.pairing(lam, gr.dual(lam)) == 1


def test_four_lines_through_two_lines_in_space():
    gr = GrassmannianRing(2, 4)
    s1 = basis_polynomial(gr, Partition([1]))
    assert gr.integrate(gr.reduce(s1 ** 4)) == 2


def test_projective_degrees_of_the_rings():
    # top self-intersection of the hyperplane class, derivable entirely
    # inside the ring machinery by iterated products
    for (r, n), expected in [((2, 4), 2), ((2, 5), 5), ((3, 6), 42)]:
        ring = GrassmannianRing(r, n)
        hyper = basis_polynomial(ring, Partition([1]))
        assert ring.integrate(ring.reduce(hyper ** ring.top_degree)) == expected
    for n, expected in [(1, 1), (2, 2), (3, 16)]:
        ring = LagrangianRing(n)
        hyper = basis_polynomial(ring, StrictPartition([1]))
        assert ring.integrate(ring.reduce(hyper ** ring.top_degree)) == expected


def test_gr_reduce_is_ring_map():
    for (r, n) in [(2, 4), (2, 5)]:
        ring = GrassmannianRing(r, n)
        basis = all_basis(ring)
        for lam in basis:
            for mu in basis:
                if lam.weight + mu.weight > ring.top_degree:
                    assert ring.basis_product(lam, mu).is_zero()
                    continue
                product = basis_polynomial(ring, lam) * basis_polynomial(ring, mu)
                assert ring.reduce(product) == ring.basis_product(lam, mu)


def test_basis_product_matches_the_reduced_product():
    # the lighter class built on the heavier by its peel, against the old
    # route: multiply both Giambelli polynomials, then reduce
    rings = [GrassmannianRing(r, n) for n in range(2, 8) for r in range(1, n)]
    rings += [LagrangianRing(n) for n in range(1, 6)]
    for ring in rings:
        basis = all_basis(ring)
        for lam in basis:
            for mu in basis:
                product = ring.basis_product(lam, mu)
                if lam.weight + mu.weight > ring.top_degree:
                    assert product.is_zero() and product.degree == lam.weight + mu.weight
                    continue
                expected = ring.reduce(basis_polynomial(ring, lam) * basis_polynomial(ring, mu))
                assert product == expected, (ring, lam, mu)
    with pytest.raises(ValueError, match="is not in the 2x2 rectangle"):
        GrassmannianRing(2, 4).basis_product(Partition([3]), Partition([1]))
    with pytest.raises(ValueError, match="is not in the 2x2 rectangle"):
        GrassmannianRing(2, 4).basis_product(Partition([1]), Partition([1, 1, 1]))
    with pytest.raises(ValueError, match="not inside the staircase of 2"):
        LagrangianRing(2).basis_product(StrictPartition([3]), StrictPartition())


def _warm_table_rings():
    return [(lambda r=r, n=n: GrassmannianRing(r, n)) for n in range(2, 8) for r in range(1, n)] + \
        [(lambda n=n: LagrangianRing(n)) for n in range(1, 6)]


def test_warm_products_and_restrictions_equal_fresh_ones():
    # every product of Gr(r, n), n <= 7, and LG(n), n <= 5, read from a full
    # product table equals the product on a fresh ring; likewise every
    # restriction to LG(n), n <= 5, read from the memo equals one built
    # after the memo is cleared
    for make in _warm_table_rings():
        warm = make()
        basis = all_basis(warm)
        pairs = [(lam, mu) for lam in basis for mu in basis]
        first = [warm.basis_product(lam, mu) for lam, mu in pairs]
        assert len(warm.basis_products) == len(pairs)
        for (lam, mu), x in zip(pairs, first):
            again = warm.basis_product(lam, mu)
            assert again == x == make().basis_product(lam, mu), (warm, lam, mu)
            # tuples and lists of parts read the same table entry
            assert warm.basis_product(list(lam), tuple(mu)) == x
    for n in range(1, 6):
        indices = [lam for d in range(n * n + 1)
                   for lam in enumerate_partitions(d, max_part=n, max_length=n)]
        warm = LagrangianRing(n)
        first = [warm.restrict(lam) for lam in indices]
        assert [warm.restrict(lam) for lam in indices] == first
        assert [LagrangianRing(n).restrict(lam) for lam in indices] == first
        restriction.cache_clear()
        assert [restrict(warm, lam) for lam in indices] == first


def test_a_changed_result_leaves_the_tables_as_they_were():
    gr, lg = GrassmannianRing(2, 4), LagrangianRing(3)
    calls = [lambda: gr.basis_product(Partition([1]), Partition([1])),
             lambda: lg.basis_product(StrictPartition([2]), StrictPartition([1])),
             lambda: lg.restrict(Partition([2, 1])),
             lambda: restrict(lg, Partition([2, 1])),
             # a reduce of one class with coefficient 1 starts from a copy of
             # it, one with another coefficient or of a sum builds a new dict
             lambda: gr.reduce(c(1) ** 2),
             lambda: lg.reduce(c(1) ** 3),
             lambda: gr.reduce(2 * c(1) ** 2),
             lambda: gr.reduce(c(1) ** 2 + c(2))]

    def tables():
        return [{key: (x.degree, dict(x.coefficients)) for key, x in table.items()}
                for ring in (gr, lg) for table in (ring.monomial_classes, ring.basis_products)]

    for call in calls:
        expected = call()
        expected_items, expected_tables = expected.items(), tables()
        for change in (lambda x: x.coefficients.clear(),
                       lambda x: x.coefficients.update({lam: 7 for lam in x.coefficients}),
                       lambda x: x.coefficients.update({x.key([x.degree]): -1})):
            change(call())
            assert tables() == expected_tables
            assert call() == expected and call().items() == expected_items


def test_whole_ring_pairings_keep_no_products():
    # pairing_is_dual_permutation builds the pairing matrix of every degree
    for ring in (GrassmannianRing(2, 5), GrassmannianRing(3, 6), LagrangianRing(3)):
        assert pairing_is_dual_permutation(ring)
        assert ring.pairing(ring.point_class, ring.dual(ring.point_class)) == 1
        assert ring.basis_products == {}


def test_product_and_restriction_checks_fail_in_their_order_on_warm_tables():
    # each input fails every check from its own on, and the first check
    # decides; a ring whose product table, and a memo whose restrictions,
    # already hold the good inputs near the bad ones fail as fresh ones do,
    # and a bad input never enters them
    budget = "a factor of weight {} exceeds the product budget of Gr(1,1000000000): " \
             "weights up to 400"
    product_cases = [
        # both factors are held to the rectangle before a product above the
        # top degree is zero
        (lambda: GrassmannianRing(2, 4), [([2, 1], [1]), ([1], [2])], [
            (([1, 2], [3]), "partition parts must be weakly decreasing: (1, 2)"),
            (([3], [1]), "Partition([3]) is not in the 2x2 rectangle"),
            (([1], [1, 1, 1]), "Partition([1, 1, 1]) is not in the 2x2 rectangle"),
            (([3], [1, 1, 1]), "Partition([3]) is not in the 2x2 rectangle")]),
        (lambda: LagrangianRing(2), [([2], [1]), ([1], [2]), ([2, 1], [])], [
            (([1, 1], [3]), "parts must be strictly decreasing: (1, 1)"),
            (([3], []), "StrictPartition([3]) is not inside the staircase of 2"),
            (([], [3]), "StrictPartition([3]) is not inside the staircase of 2"),
            (([3], [1]), "StrictPartition([3]) is not inside the staircase of 2")]),
        (lambda: GrassmannianRing(1, 10 ** 9), [([400], [401]), ([10 ** 6], [400])], [
            (([401], [2, 1]), "Partition([2, 1]) is not in the 1x999999999 rectangle"),
            (([401], [401]), budget.format(401)),
            (([402], [500]), budget.format(402))]),
    ]
    for make, good, cases in product_cases:
        primed = make()
        for lam, mu in good:
            primed.basis_product(lam, mu)
        assert len(primed.basis_products) == len(good)
        table = dict(primed.basis_products)
        for ring in (make(), primed):
            for (lam, mu), message in cases:
                for _ in range(2):
                    with pytest.raises(ValueError) as info:
                        ring.basis_product(lam, mu)
                    assert str(info.value) == message, (ring, lam, mu)
        assert primed.basis_products == table
    restrict_cases = [
        ([1, 2], "partition parts must be weakly decreasing: (1, 2)"),
        ([3], "Partition([3]) is not a Schubert index of G_2(V)"),
        ([1, 1, 1], "Partition([1, 1, 1]) is not a Schubert index of G_2(V)")]
    big = [10, 10, 10, 10, 1]
    for primed in (False, True):
        restriction.cache_clear()
        if primed:
            for lam in ([2], [1, 1], [2, 2], [2, 1]):
                LagrangianRing(2).restrict(lam)
        size = restriction.cache_info().currsize
        for ring in (LagrangianRing(2), Namespace(n=2)):
            for lam, message in restrict_cases:
                with pytest.raises(ValueError) as info:
                    restrict(ring, lam)
                assert str(info.value) == message, (ring, lam)
        # weight 41 lies within the top degree 55 of LG(10), past the output budget
        with pytest.raises(ValueError, match=r"^degree 41 exceeds the output budget: "):
            LagrangianRing(10).restrict(big)
        assert restriction.cache_info().currsize == size


def test_gr_basis_round_trip():
    ring = GrassmannianRing(3, 6)
    for lam in all_basis(ring):
        assert ring.reduce(basis_polynomial(ring, lam)).coefficients == {lam: 1}


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
    # a column of any length is one block of the strip step, so tall
    # projective spaces, Gr(n - 1, n), reach their point class
    for r in (600, 3000):
        ring = GrassmannianRing(r, r + 1)
        assert ring.integrate(ring.reduce(c(1) ** r)) == 1


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
        for mu in all_basis(ring):
            assert ring.reduce(basis_polynomial(ring, mu)).coefficients == \
                ({mu: 1} if mu.parts else {StrictPartition(): 1})


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
                p = CPolynomial({mono: 1})
                assert ring.reduce(p) == lg_reduce_by_solve(ring, p), (n, mono)


def test_lg_reduce_errors():
    lg = LagrangianRing(2)
    with pytest.raises(ValueError):
        lg.reduce(c(3))
    with pytest.raises(ValueError):
        lg.reduce(c(2) ** 2)  # degree 4 > top 3


def test_lg_integrate_examples():
    lg = LagrangianRing(2)
    point = lg.reduce(basis_polynomial(lg, StrictPartition([2, 1])))
    assert lg.integrate(point) == 1
    y1y2 = basis_polynomial(lg, StrictPartition([1])) * \
        basis_polynomial(lg, StrictPartition([2]))
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
                    product = CPolynomial({mono: 1}) * gen
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
                assert is_nonnegative(result), (n, lam)


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


def test_restrict_matches_the_reduced_schur_polynomial():
    # the column-peel build of s_lam against reducing its polynomial
    for n in range(1, 7):
        ring = LagrangianRing(n)
        for d in range(n * n + 1):
            for lam in enumerate_partitions(d, max_part=n, max_length=n):
                result = ring.restrict(lam)
                if d > ring.top_degree:
                    assert result.is_zero() and result.degree == d
                else:
                    assert result == reduce_tautological(ring, schur_dual_jt(lam)), (n, lam)


def test_pairing_budget_counts_cells_before_enumerating():
    def cells(ring):
        return sum(len(ring.basis(d)) * len(ring.basis(ring.top_degree - d))
                   for d in range(ring.top_degree + 1))

    for ring in [GrassmannianRing(r, n) for n in range(2, 10) for r in range(1, n)] + \
            [LagrangianRing(n) for n in range(1, 9)]:
        assert ring.basis_sizes() == [len(ring.basis(d)) for d in range(ring.top_degree + 1)]
        assert cells(ring) <= PAIRING_BUDGET
        check_pairing_budget(ring)
    # the largest admitted rings of each family, and the first rejected ones
    for ring in (GrassmannianRing(3, 22), GrassmannianRing(19, 22), GrassmannianRing(4, 15),
                 LagrangianRing(10)):
        check_pairing_budget(ring)
    for ring in (GrassmannianRing(3, 23), GrassmannianRing(20, 23), GrassmannianRing(4, 16),
                 GrassmannianRing(6, 13), LagrangianRing(11), GrassmannianRing(1, 75001)):
        with pytest.raises(ValueError) as info:
            pairing_is_dual_permutation(ring)
        assert str(info.value) == \
            f"{ring.label} exceeds the pairing budget: more than 75000 matrix cells"


def test_product_budget_reads_the_ring_degree_sizes():
    from schurcalc.partitions import TERM_BUDGET
    from schurcalc.rings import PRODUCT_WEIGHT_BUDGET

    # the heaviest lighter class: the weight cap, the top degree, or the
    # degree before the first with more than TERM_BUDGET classes
    for ring in (GrassmannianRing(1, 90), GrassmannianRing(2, 50), GrassmannianRing(3, 7),
                 GrassmannianRing(1, 10 ** 9), GrassmannianRing(12, 40), LagrangianRing(5),
                 LagrangianRing(10 ** 9)):
        bound = ring.product_weight_bound
        assert max(ring.basis_sizes(bound)) <= TERM_BUDGET, ring
        if bound < min(ring.top_degree, PRODUCT_WEIGHT_BUDGET):
            assert ring.basis_sizes(bound + 1)[-1] > TERM_BUDGET, ring
    assert [ring.product_weight_bound for ring in (
        GrassmannianRing(1, 90), GrassmannianRing(2, 50), GrassmannianRing(3, 7),
        GrassmannianRing(1, 10 ** 9))] == [89, 96, 12, PRODUCT_WEIGHT_BUDGET]
    # 73 has 40026 strict partitions, and 44 has 41663 partitions in the
    # 12 x 28 box, the first degrees past TERM_BUDGET
    assert LagrangianRing(10 ** 9).product_weight_bound == 72
    assert GrassmannianRing(12, 40).product_weight_bound == 43
    # the lighter factor alone is held to the bound
    ring = GrassmannianRing(1, 10 ** 9)
    assert ring.basis_product(Partition([400]), Partition([10 ** 6])).get([10 ** 6 + 400]) == 1
    with pytest.raises(ValueError, match=r"^a factor of weight 401 exceeds the product budget "
                                         r"of Gr\(1,1000000000\): weights up to 400$"):
        ring.basis_product(Partition([401]), Partition([401]))


def test_basis_sizes_up_to_a_degree_are_a_prefix():
    for ring in [GrassmannianRing(r, n) for n in range(2, 9) for r in range(1, n)] + \
            [LagrangianRing(n) for n in range(1, 7)]:
        sizes = ring.basis_sizes()
        for degree in range(ring.top_degree + 3):
            assert ring.basis_sizes(degree) == sizes[:degree + 1], (ring, degree)


def test_lg_basis_total_count():
    for n in range(1, 5):
        assert len(all_basis(LagrangianRing(n))) == 2 ** n


# -- shared ring structure ---------------------------------------------------


def test_zero_class_keeps_its_degree():
    for ring, vanishing in [(GrassmannianRing(2, 4), c(3) * c(1)),
                            (LagrangianRing(2), c(3))]:
        d = ring.top_degree
        x = reduce_tautological(ring, vanishing)
        assert x == Expansion({}, degree=d, key=ring.key)
        assert ring.integrate(x) == 0
    with pytest.raises(ValueError, match="exceeds the top degree"):
        reduce_tautological(LagrangianRing(2), c(3) * c(1))


def test_tautological_reduction_equals_truncating_first():
    # the oracle's one-pass truncation, with the degree of p read only when
    # nothing is left, against truncating monomial by monomial and reading
    # p's degree first: the same class, or the same message, on every sum of
    # up to three monomials of the pool
    cp1, v1 = CPolynomial.gen(FAMILY_CPRIME, 1), CPolynomial.gen("v1")
    pool = [c(1), c(2), c(3), c(1) ** 2, c(3) * c(1), c(4), c(2) ** 2, c(5) * c(1), cp1,
            cp1 * c(3), v1 * c(3), v1 * c(1), -c(3) * c(1) ** 2]

    def outcome(call):
        try:
            return call()
        except ValueError as exc:
            return str(exc)

    def truncating_first(ring, p):
        degree = p.homogeneous_degree() if p.is_homogeneous() else None
        kept = CPolynomial({mono: coeff for mono, coeff in p.terms.items()
                            if all(g[0] != FAMILY_C or g[1] <= ring.rank for g, _ in mono)})
        if kept.is_zero():
            return Expansion({}, degree=ring.check_degree(degree), key=ring.key)
        return ring.reduce(kept)

    for ring in (GrassmannianRing(2, 4), LagrangianRing(2), GrassmannianRing(3, 6)):
        for size in range(4):
            for terms in combinations(pool, size):
                p = sum(terms, CPolynomial.zero())
                assert outcome(lambda: reduce_tautological(ring, p)) == \
                    outcome(lambda: truncating_first(ring, p)), (ring, p)


def test_pairing_check_is_per_degree():
    rings = [GrassmannianRing(2, 4), GrassmannianRing(4, 9)]
    rings += [LagrangianRing(n) for n in (2, 5, 6, 7, 8)]
    for ring in rings:
        assert pairing_is_dual_permutation(ring), ring
        rows, cols, matrix = ring.pairing_matrix(1)
        assert is_dual_permutation(ring, rows, cols, matrix)
        broken = [[1 - v for v in row] for row in matrix]
        assert not is_dual_permutation(ring, rows, cols, broken)


def test_schubert_structure_constants_are_nonnegative_and_triple_numbers_symmetric():
    # Schubert calculus is positive: every product of two Schubert classes
    # has nonnegative coefficients, here on all of Gr(r, n) for n <= 9, the
    # tall r > n/2 included, and of LG(n) for n <= 7.  The triple number
    # of lam, mu and nu is the coefficient of the dual of nu in the product
    # of lam and mu; build_product builds the lighter factor on the heavier,
    # so its symmetry in all three is a check on the build, not a
    # restatement of it
    rings = [GrassmannianRing(r, n) for n in range(2, 10) for r in range(1, n)]
    rings += [LagrangianRing(n) for n in range(1, 8)]
    for ring in rings:
        basis = all_basis(ring)
        duals = {nu: ring.dual(nu) for nu in basis}
        triples = {}
        for lam in basis:
            for mu in basis:
                product = ring.build_product(lam, mu)
                assert is_nonnegative(product), (ring.label, lam, mu)
                for nu in basis:
                    if product.degree + nu.weight == ring.top_degree:
                        triples[lam, mu, nu] = product.get(duals[nu])
        for (lam, mu, nu), number in triples.items():
            assert triples[mu, lam, nu] == triples[lam, nu, mu] == number, \
                (ring.label, lam, mu, nu)
        assert sum(triples.values()) > 0, ring.label

"""Property tests over random homogeneous combinations of c-monomials and
random expressions of the grammar.

Examples are derandomized, so every run checks the same inputs.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from schurcalc import partitions, pieri, rings, schubert, schur
from schurcalc import qtilde as qtilde_module
from schurcalc.cli import expansion_payload, main, to_json
from schurcalc.parsing import evaluate_text
from schurcalc.partitions import StrictPartition
from schurcalc.pieri import Expansion
from schurcalc.polynomial import FAMILY_C, FAMILY_CPRIME, CPolynomial, truncate_family
from schurcalc.pairing import enumerate_partitions, enumerate_strict_partitions
from schurcalc.rings import GrassmannianRing, LagrangianRing
from schurcalc.schur import from_schur, to_schur
from schurcalc.schureval import evaluate_schur

from oracles import (lg_reduce_by_solve, qtilde_two_rules, ring_expression_oracle,
                     schur_jt_dual_form, to_schur_oracle)

MAX_DEGREE = 12
RINGS = [(r, n) for n in range(2, 9) for r in range(1, n)]


def combination(terms):
    """sum coeff * c_lam over (lam, coeff) pairs."""
    total = CPolynomial.zero()
    for lam, coeff in terms:
        mono = CPolynomial.constant(coeff)
        for i in lam.parts:
            mono = mono * CPolynomial.gen(FAMILY_C, i)
        total = total + mono
    return total


def homogeneous(d, max_index=None):
    monomials = st.sampled_from(enumerate_partitions(d, max_part=max_index))
    terms = st.lists(st.tuples(monomials, st.integers(-9, 9)), min_size=1, max_size=5)
    return terms.map(combination)


@settings(derandomize=True, deadline=None)
@given(st.integers(0, MAX_DEGREE).flatmap(homogeneous))
def test_from_schur_inverts_to_schur(p):
    assert from_schur(to_schur(p)) == p


@st.composite
def ring_and_class(draw):
    r, n = draw(st.sampled_from(RINGS))
    d = draw(st.integers(0, min(MAX_DEGREE, r * (n - r))))
    return r, n, draw(homogeneous(d, max_index=r))


@settings(derandomize=True, deadline=None)
@given(ring_and_class())
def test_gr_reduce_is_to_schur_cut_to_the_rectangle(case):
    r, n, p = case
    ring = GrassmannianRing(r, n)
    full = to_schur(p)
    kept = {lam: c for lam, c in full.coefficients.items()
            if lam.fits_rectangle(r, n - r)}
    assert ring.reduce(p).coefficients == kept


# -- the Schur-basis evaluation equals the c-polynomial path ------------------

EXPRESSION_DEGREE = 10


def _parts(lam) -> str:
    return ",".join(map(str, lam.parts))


@st.composite
def homogeneous_text(draw, family, d, depth=0):
    """The text of an expression of degree d in one family: s and q atoms are
    of the c family, so c' expressions hold only c' atoms and numbers."""
    kinds = ["atom"] if depth == 3 else ["atom", "atom", "sum", "product", "power", "cancel"]
    kind = draw(st.sampled_from(kinds))
    if kind == "sum":
        op = draw(st.sampled_from(["+", "-"]))
        return f"{draw(homogeneous_text(family, d, depth + 1))} {op} " \
               f"{draw(homogeneous_text(family, d, depth + 1))}"
    if kind == "product" and d:
        a = draw(st.integers(0, d))
        return f"({draw(homogeneous_text(family, a, depth + 1))})*" \
               f"({draw(homogeneous_text(family, d - a, depth + 1))})"
    if kind == "power" and d:
        e = draw(st.sampled_from([e for e in range(1, 4) if d % e == 0]))
        return f"({draw(homogeneous_text(family, d // e, depth + 1))})^{e}"
    if kind == "cancel":
        # a value minus itself: zero, and of degree d in the syntax tree
        inner = draw(homogeneous_text(family, d, depth + 1))
        return f"{draw(homogeneous_text(family, d, depth + 1))} + ({inner}) - ({inner})"
    if d == 0:
        return draw(st.sampled_from(["0", "1", "3", f"{family}1^0", "2^3"]))
    atoms = [st.just(f"{family}{d}"),
             st.integers(1, d).map(lambda k: f"{family}{k}^{d // k}*{family}{d % k}"
                                   if d % k else f"{family}{k}^{d // k}")]
    if family == FAMILY_C:
        atoms += [st.sampled_from(enumerate_partitions(d)).map(lambda lam: f"s[{_parts(lam)}]"),
                  st.sampled_from(enumerate_strict_partitions(d, d))
                  .map(lambda mu: f"q[{_parts(mu)}]")]
    # (0 - k) is a negative number of degree 0, unlike a leading "0 -"
    coeff = draw(st.sampled_from(["", "2*", "(0 - 1)*", "(0 - 3)*", "0*"]))
    return coeff + draw(st.one_of(atoms))


@st.composite
def mixed_degrees(draw, family, text, d):
    """text, of degree d, with terms of other degrees up to EXPRESSION_DEGREE
    in four cases of seven: a term added and taken away, a term of another
    degree added, which makes an inhomogeneous sum unless a side is zero, a
    power (X + Y)^e of a base whose terms differ in degree, added and taken
    away, or a term of any degree with a literal 0 factor, which is no term
    of the value."""
    kind = draw(st.sampled_from(["none", "none", "none", "cancel", "sum", "power", "zero"]))
    if kind == "zero":
        other = draw(homogeneous_text(family, draw(st.integers(0, EXPRESSION_DEGREE))))
        zero = draw(st.sampled_from(["0", "0^2", "(0 - 0)", "2*0"]))
        return draw(st.sampled_from([f"{zero}*({other}) + {text}",
                                     f"{text} - ({other})*{zero}"]))
    if kind == "power":
        e = draw(st.integers(1, 3))
        a, b = draw(st.lists(st.integers(0, EXPRESSION_DEGREE // e), min_size=2, max_size=2,
                             unique=True))
        # X and Y drawn one level from the atoms, so that the power stays small
        base = f"(({draw(homogeneous_text(family, a, 2))}) + " \
               f"({draw(homogeneous_text(family, b, 2))}))^{e}"
        return f"{base} - {base} + {text}"
    if kind == "sum":
        other = draw(st.integers(0, EXPRESSION_DEGREE).filter(lambda k: k != d))
        return f"{text} + ({draw(homogeneous_text(family, other))})"
    if kind == "cancel":
        other = draw(homogeneous_text(family, draw(st.integers(0, EXPRESSION_DEGREE))))
        return f"{text} + ({other}) - ({other})"
    return text


@st.composite
def expression_text(draw):
    """A single-family expression of highest degree at most EXPRESSION_DEGREE,
    about half of them with terms of other degrees (see mixed_degrees)."""
    family = draw(st.sampled_from([FAMILY_C, FAMILY_CPRIME]))
    d = draw(st.integers(0, EXPRESSION_DEGREE))
    return draw(mixed_degrees(family, draw(homogeneous_text(family, d)), d))


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(expression_text(), st.sampled_from([None, 0, 1, 2, 3]))
def test_the_schur_evaluation_equals_the_polynomial_path(text, length_bound):
    expected = _outcome(lambda: to_schur(evaluate_text(text), length_bound=length_bound))
    assert _outcome(evaluate_schur, text, length_bound) == expected, text


# -- ring commands equal the c-polynomial route --------------------------------

EXPRESSION_RINGS = [("gr", r, n) for n in range(2, 9) for r in range(1, n)] + \
    [("lg", n) for n in range(1, 6)]


@st.composite
def foreign_term(draw, text, rank):
    """text with a c'_k, v1 or v2 term in about one case of ten: plain,
    cancelled (X - X), times a c_k above the rank, which is zero in the
    ring, or under a literal 0, which alone leaves no foreign family in the
    syntax tree."""
    if draw(st.integers(0, 9)):
        return text
    atom = draw(st.sampled_from(["c'1", "c'2", "v1", "v2"]))
    term = draw(st.sampled_from([atom, f"{atom} - {atom}", f"c{rank + 1}*{atom}",
                                 f"0*{atom}", f"{atom}*0"]))
    return draw(st.sampled_from([f"{text} + {term}", f"{term} + {text}"]))


@st.composite
def ring_expression(draw):
    """A ring and an expression of degree at most EXPRESSION_DEGREE, or one
    past the top degree; s atoms range over all partitions of their weight
    and q atoms over all strict ones, so many lie outside the ring's box,
    about half of them hold terms of other degrees (see mixed_degrees) and
    about a tenth a term of a foreign family (see foreign_term)."""
    spec = draw(st.sampled_from(EXPRESSION_RINGS))
    ring = make_ring(spec)
    d = draw(st.integers(0, min(EXPRESSION_DEGREE, ring.top_degree + 1)))
    text = draw(mixed_degrees(FAMILY_C, draw(homogeneous_text(FAMILY_C, d)), d))
    return spec, draw(foreign_term(text, ring.rank))


def assert_reduce_is_the_oracle(spec, text):
    """gr/lg reduce prints the class of ring_expression_oracle, or its message."""
    ring = make_ring(spec)
    argv = [spec[0]] + (["--r", str(spec[1]), "--n", str(spec[2])] if spec[0] == "gr"
                        else ["--n", str(spec[1])]) + ["reduce", text]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    try:
        x = ring_expression_oracle(ring, text)
    except ValueError as exc:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {exc}\n"), argv
    else:
        expected = to_json({"ring": ring.label, **expansion_payload(x)}) + "\n"
        assert (code, out.getvalue(), err.getvalue()) == (0, expected, ""), argv


@settings(derandomize=True, deadline=None, max_examples=400)
@given(ring_expression())
def test_ring_reduce_equals_the_c_polynomial_route(case):
    assert_reduce_is_the_oracle(*case)


def test_every_small_basis_atom_is_its_class_in_the_ring():
    # each s and q atom of weight up to 7, on every ring of the property:
    # the boxes' edges are met exactly, which random draws can miss
    atoms = [f"s[{_parts(lam)}]" for d in range(1, 8) for lam in enumerate_partitions(d)]
    atoms += [f"q[{_parts(mu)}]" for d in range(1, 8) for mu in enumerate_strict_partitions(d, d)]
    for spec in EXPRESSION_RINGS:
        if spec[-1] <= 6:
            for text in atoms:
                assert_reduce_is_the_oracle(spec, text)


@st.composite
def mirror_products(draw):
    """Gr(r, n) with n <= 9, tall rings included, and two of its classes."""
    n = draw(st.integers(2, 9))
    ring = GrassmannianRing(draw(st.integers(1, n - 1)), n)
    lam, mu = (draw(st.sampled_from(ring.basis(draw(st.integers(0, ring.top_degree)))))
               for _ in range(2))
    return ring, lam, mu


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mirror_products())
def test_gr_products_are_the_conjugates_of_the_mirror_ring(case):
    # c^nu_{lam mu} = c^{nu'}_{lam' mu'}: Gr(r, n) and Gr(n - r, n) multiply
    # conjugate classes alike, so a tall ring checks its short mirror
    ring, lam, mu = case
    mirror = GrassmannianRing(ring.n - ring.r, ring.n)
    product = ring.basis_product(lam, mu)
    conjugated = {kappa.conjugate(): c for kappa, c in product.coefficients.items()}
    assert mirror.basis_product(lam.conjugate(), mu.conjugate()) == \
        Expansion(conjugated, degree=product.degree)


# -- warm ring calls equal cold calls and the oracles --------------------------

MEMO_MODULES = (partitions, pieri, qtilde_module, schubert, schur, rings)
WARM_RINGS = [("gr", r, n) for n in range(2, 8) for r in range(1, n)] + \
    [("lg", n) for n in range(1, 5)]


def clear_memos():
    """Empty every lru_cache of the memo modules, the restriction memo
    (schubert.restriction) among them; the tables of monomial classes and
    of basis products belong to a ring, and each example makes new rings."""
    for module in MEMO_MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    assert schubert.restriction.cache_info().currsize == 0


def make_ring(spec):
    return GrassmannianRing(*spec[1:]) if spec[0] == "gr" else LagrangianRing(spec[1])


@st.composite
def ring_calls(draw):
    """A ring, a class to reduce, a top-degree class to integrate, a product
    of two basis classes (possibly above the top degree) and, in LG, a
    Schubert index of the ambient Grassmannian to restrict."""
    spec = draw(st.sampled_from(WARM_RINGS))
    ring = make_ring(spec)
    d = draw(st.integers(0, min(MAX_DEGREE, ring.top_degree)))
    p = draw(homogeneous(d, max_index=ring.rank))
    top = draw(homogeneous(ring.top_degree, max_index=ring.rank))
    lam, mu = (draw(st.sampled_from(ring.basis(draw(st.integers(0, ring.top_degree)))))
               for _ in range(2))
    nu = None
    if spec[0] == "lg":
        n = spec[1]
        nu = draw(st.sampled_from(enumerate_partitions(
            draw(st.integers(0, n * n)), max_part=n, max_length=n)))
    return spec, p, top, lam, mu, nu


def ring_results(ring, p, top, lam, mu, nu):
    return (ring.reduce(p), ring.integrate(ring.reduce(top)) if top else 0,
            ring.basis_product(lam, mu),
            None if nu is None else ring.restrict(nu))


def gr_oracle(ring, p):
    kept = {lam: c for lam, c in to_schur_oracle(p, nvars=ring.r).coefficients.items()
            if lam.fits_rectangle(ring.r, ring.cols)}
    return Expansion(kept, degree=p.homogeneous_degree())


def lg_oracle(ring, p, degree):
    return lg_reduce_by_solve(ring, truncate_family(p, FAMILY_C, ring.n), degree)


def oracle_results(spec, p, top, lam, mu, nu):
    ring = make_ring(spec)
    d = lam.weight + mu.weight
    if spec[0] == "gr":
        product = schur_jt_dual_form(lam) * schur_jt_dual_form(mu)
        return (gr_oracle(ring, p), gr_oracle(ring, top).get(ring.point_class),
                Expansion(gr_oracle(ring, product).coefficients, degree=d), None)
    product = qtilde_two_rules(lam) * qtilde_two_rules(mu)
    product = Expansion({}, degree=d, key=StrictPartition) if d > ring.top_degree \
        else lg_oracle(ring, product, d)
    restricted = Expansion({}, degree=nu.weight, key=StrictPartition) \
        if nu.weight > ring.top_degree else lg_oracle(ring, schur_jt_dual_form(nu), nu.weight)
    return (lg_oracle(ring, p, None), lg_oracle(ring, top, ring.top_degree).get(ring.point_class),
            product, restricted)


@settings(derandomize=True, deadline=None)
@given(ring_calls())
def test_warm_ring_calls_equal_cold_calls_and_the_oracles(case):
    spec, *args = case
    clear_memos()
    ring = make_ring(spec)
    cold = ring_results(ring, *args)
    assert ring_results(ring, *args) == cold
    assert ring_results(make_ring(spec), *args) == cold
    assert oracle_results(spec, *args) == cold

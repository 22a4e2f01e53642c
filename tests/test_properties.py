"""Property tests over random homogeneous combinations of c-monomials.

Examples are derandomized, so every run checks the same inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from schurcalc.partitions import enumerate_partitions
from schurcalc.polynomial import FAMILY_C, CPolynomial
from schurcalc.rings import GrassmannianRing
from schurcalc.schur import from_schur, to_schur

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

"""gr/lg reduce and integrate: an expression evaluated in a ring.

Every expression is evaluated on the ring's Schubert basis, with the atoms
that README.md tabulates.  The syntax tree gives the degree and the
families, terms with a literal 0 factor aside, and a family other than c is
rejected at once.  Terms of different degrees build the c-polynomial, its
atoms cut to the ring's rank before they multiply, only to check that the
value is homogeneous and to find its degree.
"""

from .cli import emit, expansion_payload
from .parsing import Basis, Gen, Num, evaluate, parse
from .partitions import FAMILY_C, Partition, number_text
from .pieri import Expansion
from .rings import GrassmannianRing, LagrangianRing
from .schureval import BasisValue, basis_atom, expression_reading, expression_text


def _column(leaf: Gen | Basis) -> int:
    """k when leaf is c_k, s[1^k] or q[k], which are one class; else 0."""
    if isinstance(leaf, Gen):
        return leaf.index
    if leaf.kind == "s":
        return len(leaf.parts) if leaf.parts[0] == 1 else 0
    return leaf.parts[0] if len(leaf.parts) == 1 else 0


def _ring_atom(ring, basis: tuple):
    gr = isinstance(ring, GrassmannianRing)

    def atom(leaf):
        if isinstance(leaf, Num):
            return basis_atom(leaf, basis)
        if isinstance(leaf, Gen) and leaf.family != FAMILY_C:
            # only under a literal 0, whose product is 0 in any ring
            return BasisValue({}, basis)
        k = _column(leaf)
        if k or gr and leaf.kind == "q":
            # c_k, or the c-monomials of Q-tilde, which Gr's fold cuts
            return basis_atom(Gen(FAMILY_C, k) if k else leaf, basis) if k <= ring.rank \
                else BasisValue({}, basis)
        parts = leaf.parts
        if leaf.kind == "q":
            terms = {parts: 1} if parts[0] <= ring.n else {}
        elif not Partition(parts).fits_rectangle(*(ring.bound if gr else (ring.n, ring.n))):
            terms = {}
        else:
            terms = {parts: 1} if gr else ring.restrict(parts).coefficients
        return BasisValue({(lam, ()): c for lam, c in terms.items()}, basis)

    return atom


def run(args, pretty: bool) -> int:
    ring = GrassmannianRing(args.r, args.n) if args.command == "gr" else LagrangianRing(args.n)
    expr = parse(expression_text(args, args.arg))
    reading = expression_reading(expr)
    # the degree read from the syntax tree is also the degree of a zero value
    degree = ring.check_degree(reading.lo if reading.lo == reading.hi else None)
    ring.check_families(reading.families)
    if degree is None:
        # terms of different degrees: the c-polynomial, c_k above the rank 0 as in
        # the ring, only checks homogeneity and gives the degree; a value that
        # this truncation kills keeps the degree of the whole one
        q = evaluate(expr, lambda leaf: evaluate(leaf).truncated(FAMILY_C, ring.rank))
        p = q or evaluate(expr)
        degree = ring.check_degree(p.homogeneous_degree() if q or p.is_homogeneous() else None)
    # products are table reads of basis_product, and none with 1
    basis = (ring.step, ring.bound, lambda lam, mu: ((lam or mu, 1),) if not (lam and mu)
             else ring.basis_product(lam, mu).coefficients.items())
    expansion = Expansion(evaluate(expr, _ring_atom(ring, basis)).expanded(), degree, ring.key)
    payload = {"value": number_text(ring.integrate(expansion))} if args.action == "integrate" \
        else expansion_payload(expansion)
    emit({"ring": ring.label, **payload}, pretty)
    return 0

"""Cohomology rings of Grassmannians and Lagrangian Grassmannians.

Both rings are finite graded quotients of a polynomial ring in Chern
generators with a self-dual Schubert basis, a point class in the top degree
and a Poincare pairing; SchubertRing holds what they share.  Each ring names
a Pieri step c_k . b_lam, a bound and a peel: pieri.monomial_fold steps
each c-monomial from 1, and pieri.pieri_build builds the lighter of two
classes on the heavier by peels:

* Gr(r, n): generators c_1..c_r, relations h_k = 0 for n-r < k <= n, basis
  the Schur classes of partitions in the r x (n-r) rectangle.  The step is
  the dual Pieri rule: c_k adds a vertical strip of k boxes and the classes
  that leave the rectangle are dropped at once, since they span an ideal
  that is zero in the quotient.  A class is peeled by its first column.
* LG(n): generators c_1..c_n, relations the truncated pair classes Q_{i,i},
  basis the Q-tilde classes of strict partitions inside the staircase.
  Since c_k = Q_k, the step is the Q-tilde Pieri rule of Pragacz-Ratajski,
  bounded by mu_1 <= n, and a class is peeled by its first row.

Every step is a product of basis classes in the ring, so the bound is exact.
A ring folds each c-monomial once: its degree and class go into the
ring's table, monomial_classes, from which every later reduce reads it;
a reduce of one monomial with coefficient 1, such as c1^d, is one dict
copy of its class, and only a sum of two or more classes drops the zeros
of classes that cancel.  A monomial missing from the table, or a second
degree, makes reduce check the whole polynomial by its own families,
generators and homogeneous degree.
Likewise basis_product keeps each product of two basis classes in the
ring's table basis_products, and a repeated product is one lookup there.
A whole-ring pairing meets each product once, so it builds them with
build_product and keeps none.

The labels, the duals, the Q-tilde step and the restriction to LG(n) need
no ring and live in schubert.py, so the dual and restrict commands do not
load this module; LagrangianRing.restrict is schubert.restrict itself, and
its memo of restrictions is shared by every LG(n) of one n.  Reduction,
products and pairings read only the Pieri core, so a pairing command never
loads the Q-tilde, Schur-function or polynomial layers, and no warm call of
reduce, integrate, basis_product or restrict runs an import statement.
Every ring call returns a new expansion, which its caller may change.  The
pairing command, its budget and the basis enumerators are in pairing.py,
which basis imports when it runs, so a library process that never lists a
whole degree compiles none of them.
"""

from functools import cached_property

from .partitions import FAMILY_C, TERM_BUDGET, Partition, StrictPartition, number_text
from .pieri import Expansion, basis_key, column_peel, monomial_fold, pieri_build, vertical_strips
from .schubert import (grassmannian_label, lagrangian_label, qtilde_pieri_step, rectangle_dual,
                       restrict, row_peel, staircase, strict_complement)

# The heaviest class basis_product builds on another.  The build recurses
# once per peel, and a class of weight w in Gr(1, n) takes w peels, so this
# keeps the recursion far inside Python's stack.
PRODUCT_WEIGHT_BUDGET = 400


class SchubertRing:
    """A graded quotient ring with a self-dual Schubert basis.

    Subclasses set key (the type of the basis indices), label, rank (the
    generators are c_1..c_rank), top_degree, step, bound and peel, and
    define point_class, basis, basis_index, dual and basis_sizes.  The
    point class has as many parts as the rank, so it is built on first
    use: only integrate reads it.
    """

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label})"

    @cached_property
    def monomial_classes(self) -> dict:
        """The table of reduce: each c-monomial the ring has reduced, mapped
        to its class, an Expansion that holds its degree and its checked
        basis indices.  A monomial enters only with a polynomial that passed
        _degree whole.  The table lasts as long as the ring and is
        unbounded, like the Pieri memos."""
        return {}

    def _degree(self, p: "CPolynomial") -> int | None:
        """Check that p is a class of the ring and return its degree, None
        for a zero p.

        The checks fail in the order: a family other than c, then c_k above
        the rank, then mixed degrees, then a degree above the top degree.
        """
        self.check_families(p.families())
        above = sorted(k for _, k in p.generators() if k > self.rank)
        if above:
            raise ValueError(f"{self.label} expects generators c_1..c_{self.rank}; got {above}")
        return self.check_degree(p.homogeneous_degree())

    def check_families(self, families) -> None:
        """Reject a generator family other than c."""
        if families - {FAMILY_C}:
            raise ValueError(f"{self.label} expects a polynomial in the c family only")

    def check_degree(self, d: int | None) -> int | None:
        """Reject a degree above the top degree; None (unknown) passes."""
        if d is not None and d > self.top_degree:
            d = number_text(d, "the degree")
            raise ValueError(f"degree {d} exceeds the top degree {self.top_degree} "
                             f"of {self.label}")
        return d

    def reduce(self, p: "CPolynomial") -> Expansion:
        """Basis expansion of the class of p, by the Pieri fold of its
        monomials from 1; a zero p has the degree None.

        One pass sums the classes of p's monomials from monomial_classes.  A
        monomial missing there, or a second degree, sends p whole through
        _degree first, so a bad p fails as on a fresh ring; p's new
        monomials are then folded into the table and the pass goes on.  A
        sum whose first coefficient is 1 starts as a copy of that class, and
        only a sum of two or more classes can cancel, so only such a sum
        drops zeros; the result never shares the table's dict.
        """
        table, total, d = self.monomial_classes, {}, None
        for mono, coeff in p.terms.items():
            x = table.get(mono)
            if x is None or d is not None and x.degree != d:
                d = self._degree(p)
                for new in p.terms:
                    if new not in table:
                        table[new] = Expansion(monomial_fold(new, self.step, self.bound), d,
                                               self.key)
                x = table[mono]
            d = x.degree
            if not total and coeff == 1:
                total = dict(x.coefficients)
                continue
            for lam, c in x.coefficients.items():
                total[lam] = total.get(lam, 0) + coeff * c
        return Expansion.trusted({lam: c for lam, c in total.items() if c}
                                 if len(p.terms) > 1 else total, d, self.key)

    def integrate(self, x: Expansion) -> int:
        """Coefficient of the point class; defined only in the top degree."""
        if x.degree != self.top_degree:
            top = number_text(self.top_degree, "the top degree")
            raise ValueError(f"integration needs degree {top}, got {x.degree}")
        return x.get(self.point_class)

    @cached_property
    def product_weight_bound(self) -> int:
        """The heaviest class that basis_product builds on another: the
        largest w <= PRODUCT_WEIGHT_BUDGET with no degree up to w holding
        more than TERM_BUDGET classes.  The ring's own degree sizes take the
        place of p(w), the size of a whole degree of Schur classes, so a
        thin ring builds heavy classes; they are counted from the Gaussian
        binomials, as the pairing budget is, and only up to that weight."""
        sizes = self.basis_sizes(PRODUCT_WEIGHT_BUDGET)
        return next((w - 1 for w, size in enumerate(sizes) if size > TERM_BUDGET),
                    len(sizes) - 1)

    @cached_property
    def basis_products(self) -> dict:
        """The table of basis_product: each pair of indices (lam, mu) the
        ring has multiplied, mapped to their product; a Partition and the
        tuple of its parts are one key.  A pair enters only after
        build_product has checked it, and lasts as long as the ring; the
        table is unbounded, like monomial_classes."""
        return {}

    def basis_product(self, lam: Partition, mu: Partition) -> Expansion:
        """Product of two Schubert classes, read from basis_products; a new
        pair is built by build_product first, so a bad one fails as on a
        fresh ring.  The result is a copy, which its caller may change.  An
        index that is not a tuple, a list of parts say, is read as its tuple."""
        if not (isinstance(lam, tuple) and isinstance(mu, tuple)):
            lam, mu = tuple(lam), tuple(mu)
        table = self.basis_products
        x = table.get((lam, mu))
        if x is None:
            x = table[lam, mu] = self.build_product(lam, mu)
        return x.copy()

    def build_product(self, lam: Partition, mu: Partition) -> Expansion:
        """Product of two basis classes, zero above the top degree: the lighter
        class, its weight held to product_weight_bound, is built on the heavier."""
        lam, mu = basis_key(self.key, tuple(lam)), basis_key(self.key, tuple(mu))
        lam, mu = self.basis_index(lam), self.basis_index(mu)
        d = lam.weight + mu.weight
        if d > self.top_degree:
            return Expansion({}, degree=d, key=self.key)
        lam, mu = (mu, lam) if mu.weight > lam.weight else (lam, mu)
        if mu.weight > self.product_weight_bound:
            raise ValueError(f"a factor of weight {mu.weight} exceeds the product budget "
                             f"of {self.label}: weights up to {self.product_weight_bound}")
        coeffs = pieri_build(lam, mu, self.step, self.bound, self.peel, self.bound)
        return Expansion(coeffs, degree=d, key=self.key)

    def pairing(self, lam: Partition, mu: Partition) -> int:
        """The Poincare pairing, by build_product: a whole-ring pairing meets
        each product once, so it keeps none in basis_products."""
        return self.integrate(self.build_product(lam, mu))

    def pairing_matrix(self, d: int):
        rows = self.basis(d)
        cols = self.basis(self.top_degree - d)
        return rows, cols, [[self.pairing(lam, mu) for mu in cols] for lam in rows]


class GrassmannianRing(SchubertRing):
    """H*(Gr(r, n)) with the Schur/Schubert basis of the r x (n-r) rectangle."""

    key = Partition

    def __init__(self, r: int, n: int):
        self.label = grassmannian_label(r, n)
        self.r = r
        self.n = n
        self.cols = n - r
        self.rank = r
        self.top_degree = r * self.cols
        self.step = vertical_strips
        self.bound = (r, self.cols)
        self.peel = column_peel

    @cached_property
    def point_class(self) -> Partition:
        return Partition((self.cols,) * self.r)

    def basis(self, d: int) -> list[Partition]:
        from .pairing import enumerate_partitions

        return enumerate_partitions(d, max_part=self.cols, max_length=self.r)

    def basis_index(self, lam: Partition) -> Partition:
        """lam as an index of the basis; raises outside the rectangle."""
        lam = basis_key(Partition, tuple(lam))
        if not lam.fits_rectangle(self.r, self.cols):
            raise ValueError(f"{lam!r} is not in the {self.r}x{self.cols} rectangle")
        return lam

    def dual(self, lam: Partition) -> Partition:
        return rectangle_dual(lam, self.r, self.n)

    def basis_sizes(self, degree: int | None = None) -> list[int]:
        """|B_d| for d = 0..top, or up to degree when it is lower: the
        coefficients of the Gaussian binomial prod_{i=1..r} (1 - q^(n-r+i)) /
        (1 - q^i).  A factor with i above the degree changes none of them."""
        top = self.top_degree if degree is None else min(degree, self.top_degree)
        sizes = [1] + [0] * top
        for i in range(1, min(self.r, top) + 1):
            for d in range(top, self.cols + i - 1, -1):
                sizes[d] -= sizes[d - self.cols - i]
            for d in range(i, top + 1):
                sizes[d] += sizes[d - i]
        return sizes


class LagrangianRing(SchubertRing):
    """H*(LG(n)) with the Q-tilde basis of strict partitions in the staircase."""

    key = StrictPartition

    def __init__(self, n: int):
        self.label = lagrangian_label(n)
        self.n = n
        self.rank = n
        self.top_degree = n * (n + 1) // 2
        self.step = qtilde_pieri_step
        self.bound = (n,)
        self.peel = row_peel

    @cached_property
    def point_class(self) -> StrictPartition:
        return staircase(self.n)

    def basis(self, d: int) -> list[StrictPartition]:
        from .pairing import enumerate_strict_partitions

        return enumerate_strict_partitions(d, self.n)

    def basis_index(self, mu: StrictPartition) -> StrictPartition:
        """mu as an index of the basis; raises outside the staircase."""
        mu = basis_key(StrictPartition, tuple(mu))
        if mu and mu[0] > self.n:
            raise ValueError(f"{mu!r} is not inside the staircase of {self.n}")
        return mu

    def dual(self, mu: StrictPartition) -> StrictPartition:
        return strict_complement(mu, self.n)

    def basis_sizes(self, degree: int | None = None) -> list[int]:
        """|B_d| for d = 0..top, or up to degree when it is lower: the
        coefficients of prod_{i=1..n} (1 + q^i)."""
        top = self.top_degree if degree is None else min(degree, self.top_degree)
        sizes = [1] + [0] * top
        for i in range(1, min(self.n, top) + 1):
            for d in range(top, i - 1, -1):
                sizes[d] += sizes[d - i]
        return sizes

    # the pullback of X^lam along LG(V) in G_n(V)
    restrict = restrict


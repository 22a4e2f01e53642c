"""Cohomology rings of Grassmannians and Lagrangian Grassmannians.

Both rings are finite graded quotients of a polynomial ring in Chern
generators with a self-dual Schubert basis, a point class in the top degree
and a Poincare pairing; SchubertRing holds what they share.  Each ring
reduces exactly onto its own basis:

* Gr(r, n): generators c_1..c_r, relations h_k = 0 for n-r < k <= n, basis
  the Schur classes of partitions in the r x (n-r) rectangle.  Reduction is
  the dual Pieri fold of schur.py bounded to the rectangle: each factor c_k
  adds a vertical strip of k boxes and the classes that leave the rectangle
  (length > r, or first part > n-r) are dropped at once, since they span an
  ideal that is zero in the quotient.
* LG(n): generators c_1..c_n, relations the truncated pair classes Q_{i,i},
  basis the Q-tilde classes of strict partitions inside the staircase.
  Since c_k = Q_k, reduction is the same fold with the Q-tilde Pieri rule
  of Pragacz-Ratajski as its step, bounded by mu_1 <= n.  Every step is a
  product of basis classes in the ring, so the bound is exact.
"""

from __future__ import annotations

from .partitions import (
    Partition,
    StrictPartition,
    enumerate_partitions,
    enumerate_strict_partitions,
    rectangle_dual,
    staircase,
    strict_complement,
)
from .polynomial import FAMILY_C, CPolynomial, truncate_family
from .qtilde import qtilde, qtilde_pieri_step
from .schur import Expansion, fold_coefficients, schur_dual_jt, vertical_strip_step


class SchubertRing:
    """A graded quotient ring with a self-dual Schubert basis.

    Subclasses set key (the type of the basis indices), label, rank (the
    generators are c_1..c_rank), top_degree and point_class, and define
    basis, basis_polynomial, reduce and dual.
    """

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label})"

    def all_basis(self) -> list[Partition]:
        return [lam for d in range(self.top_degree + 1) for lam in self.basis(d)]

    def _degree(self, p: CPolynomial, degree: int | None) -> int | None:
        """Check that p is a class of the ring and return its degree.

        A zero p takes the given degree, which is how a class that vanished
        before reduction keeps the degree it had.
        """
        if p.families() - {FAMILY_C}:
            raise ValueError(f"{self.label} expects a polynomial in the c family only")
        bad = sorted(g[1] for g in p.generators() if g[1] > self.rank)
        if bad:
            raise ValueError(f"{self.label} expects generators c_1..c_{self.rank}; got {bad}")
        d = p.homogeneous_degree()
        if d is None:
            d = degree
        if d is not None and d > self.top_degree:
            raise ValueError(f"degree {d} exceeds the top degree {self.top_degree} "
                             f"of {self.label}")
        return d

    def reduce_tautological(self, p: CPolynomial) -> Expansion:
        """Reduce p read in the Chern classes of the tautological subbundle.

        c_k with k above the rank is zero there; when that kills p, the zero
        class keeps the degree p had.
        """
        degree = p.homogeneous_degree() if p.is_homogeneous() else None
        return self.reduce(truncate_family(p, FAMILY_C, self.rank), degree=degree)

    def integrate(self, x: Expansion) -> int:
        """Coefficient of the point class; defined only in the top degree."""
        if x.degree != self.top_degree:
            raise ValueError(
                f"integration needs degree {self.top_degree}, got {x.degree}"
            )
        return x.get(self.point_class)

    def basis_product(self, lam: Partition, mu: Partition) -> Expansion:
        """Product of two Schubert classes; zero above the top degree."""
        lam, mu = self.key(lam), self.key(mu)
        if lam.weight + mu.weight > self.top_degree:
            return Expansion({}, degree=lam.weight + mu.weight, key=self.key)
        return self.reduce(self.basis_polynomial(lam) * self.basis_polynomial(mu))

    def pairing(self, lam: Partition, mu: Partition) -> int:
        return self.integrate(self.basis_product(lam, mu))

    def pairing_matrix(self, d: int):
        rows = self.basis(d)
        cols = self.basis(self.top_degree - d)
        matrix = [[self.pairing(lam, mu) for mu in cols] for lam in rows]
        return rows, cols, matrix

    def is_dual_permutation(self, rows, cols, matrix) -> bool:
        """Whether a pairing matrix pairs each row with its dual and nothing else."""
        for lam, values in zip(rows, matrix):
            partner = self.dual(lam)
            if any(value != int(mu == partner) for mu, value in zip(cols, values)):
                return False
        return True

    def pairing_is_dual_permutation(self) -> bool:
        """Whole-ring check that every pairing matrix realizes the duality."""
        return all(self.is_dual_permutation(*self.pairing_matrix(d))
                   for d in range(self.top_degree + 1))


class GrassmannianRing(SchubertRing):
    """H*(Gr(r, n)) with the Schur/Schubert basis of the r x (n-r) rectangle."""

    key = Partition

    def __init__(self, r: int, n: int):
        if not 0 < r < n:
            raise ValueError("require 0 < r < n")
        self.r = r
        self.n = n
        self.cols = n - r
        self.rank = r
        self.label = f"Gr({r},{n})"
        self.top_degree = r * self.cols
        self.point_class = Partition((self.cols,) * r)

    def basis(self, d: int) -> list[Partition]:
        return enumerate_partitions(d, max_part=self.cols, max_length=self.r)

    def basis_polynomial(self, lam: Partition) -> CPolynomial:
        """The Giambelli representative: the Schur determinant in c_1..c_r."""
        lam = Partition(lam)
        if not lam.fits_rectangle(self.r, self.cols):
            raise ValueError(f"{lam!r} is not in the {self.r}x{self.cols} rectangle")
        return truncate_family(schur_dual_jt(lam), FAMILY_C, self.r)

    def reduce(self, p: CPolynomial, degree: int | None = None) -> Expansion:
        """Schubert-basis expansion of the class of p.

        Runs the dual Pieri fold inside the r x (n-r) rectangle.  A class
        that leaves it vanishes in the quotient (length above r: a Schur
        class of a rank-r bundle; first part above n-r: the ideal kills the
        first determinant row), and so does every multiple of it, so the
        fold drops it at every step.  degree is the degree of a zero p.
        """
        d = self._degree(p, degree)
        return Expansion(fold_coefficients(p, vertical_strip_step, (self.r, self.cols)),
                         degree=d)

    def dual(self, lam: Partition) -> Partition:
        return rectangle_dual(lam, self.r, self.n)


class LagrangianRing(SchubertRing):
    """H*(LG(n)) with the Q-tilde basis of strict partitions in the staircase."""

    key = StrictPartition

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("require n >= 1")
        self.n = n
        self.rank = n
        self.label = f"LG({n})"
        self.top_degree = n * (n + 1) // 2
        self.point_class = staircase(n)

    def basis(self, d: int) -> list[StrictPartition]:
        return enumerate_strict_partitions(d, self.n)

    def basis_polynomial(self, mu: StrictPartition) -> CPolynomial:
        """Q_mu truncated to c_1..c_n, the Giambelli representative of Y^mu."""
        mu = StrictPartition(mu)
        if mu.parts and mu.parts[0] > self.n:
            raise ValueError(f"{mu!r} is not inside the staircase of {self.n}")
        return truncate_family(qtilde(mu), FAMILY_C, self.n)

    def reduce(self, p: CPolynomial, degree: int | None = None) -> Expansion:
        """Q-tilde basis expansion of the class of p.

        c_k is Q_k, so the fold multiplies the factors of each monomial in
        one at a time by the Q-tilde Pieri rule, inside the staircase of n.
        degree is the degree of a zero p.
        """
        d = self._degree(p, degree)
        return Expansion(fold_coefficients(p, qtilde_pieri_step, (self.n,)),
                         degree=d, key=self.key)

    def dual(self, mu: StrictPartition) -> StrictPartition:
        return strict_complement(mu, self.n)

    def restrict(self, lam: Partition) -> Expansion:
        """Pullback of the ambient Schubert class X^lam along LG(V) in G_n(V).

        The tautological subbundles agree under the inclusion, so the class
        is the Schur polynomial of lam in c_1..c_n reduced to the Q-tilde
        basis.  Above the top degree the cohomology vanishes and the zero
        expansion is returned.
        """
        lam = Partition(lam)
        if not lam.fits_rectangle(self.n, self.n):
            raise ValueError(f"{lam!r} is not a Schubert index of G_{self.n}(V)")
        if lam.weight > self.top_degree:
            return Expansion({}, degree=lam.weight, key=self.key)
        return self.reduce_tautological(schur_dual_jt(lam))

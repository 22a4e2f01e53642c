"""Partitions and strict partitions.

Everything downstream (Schur functions, Q-tilde functions, Schubert bases)
is indexed by the types in this module.  All values are immutable after
construction and safe to share.  It is also the base that every layer
imports: the generator family names, the output budget and the text of
numbers and degree lists in messages live here, so the Pieri layer reads
them without loading the polynomial layer.  Every command that reads a
partition or a budget compiles this module, and so does every library
process, so it holds nothing more: the enumerators are in pairing.py, the
Poincare duals and the staircase in schubert.py, and the reading of a
partition argument in commands.py.
"""

import sys

FAMILY_C = "c"
FAMILY_CPRIME = "c'"
FAMILY_V1 = "v1"
FAMILY_V2 = "v2"


class Partition(tuple):
    """A weakly decreasing sequence of positive integers: the tuple of its parts.

    Zero parts are stripped at construction so every partition has a unique
    canonical form; equality and hashing are those of that tuple, in C, so a
    partition equals and hashes as the plain tuple of its parts, and + and *
    return plain tuples.  Increasing input is rejected rather than sorted.
    < and > follow sort_key; <= and >= are not defined.
    """

    __slots__ = ()
    json_key = "partition"

    def __new__(cls, parts=()):
        if isinstance(parts, Partition):  # canonical already
            return parts if type(parts) is cls else tuple.__new__(cls, parts)
        cleaned = tuple(map(int, parts))
        while cleaned and cleaned[-1] == 0:
            cleaned = cleaned[:-1]
        for i, p in enumerate(cleaned):
            if p < 1:
                raise ValueError(f"partition parts must be positive: {cleaned}")
            if i > 0 and cleaned[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing: {cleaned}")
        return tuple.__new__(cls, cleaned)

    @property
    def parts(self) -> tuple:
        """The parts as a plain tuple, a copy."""
        return tuple(self)

    @property
    def weight(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """1-based part access with zero padding beyond the length."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self:
            return Partition()
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def fits_rectangle(self, rows: int, cols: int) -> bool:
        return len(self) <= rows and (not self or self[0] <= cols)

    def sort_key(self):
        """Global partition order: by weight, then reverse lexicographic."""
        return (sum(self), tuple(-p for p in self))

    def to_json(self) -> list:
        return list(self)

    def __lt__(self, other: "Partition") -> bool:
        self.__le__(other)  # a TypeError unless other is a partition
        return self.sort_key() < other.sort_key()

    def __gt__(self, other: "Partition") -> bool:
        self.__le__(other)
        return self.sort_key() > other.sort_key()

    def __le__(self, other):
        """<= and >= raise TypeError, and so do < and > against a plain tuple,
        which would compare lexicographically, or anything but a partition."""
        if isinstance(other, Partition):
            return NotImplemented
        raise TypeError(f"partitions compare only with partitions; got {type(other).__name__}")

    __ge__ = __le__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)})"


class StrictPartition(Partition):
    """A partition with strictly decreasing parts."""

    __slots__ = ()
    json_key = "strict_partition"

    def __new__(cls, parts=()):
        self = Partition.__new__(cls, parts)
        if len(set(self)) < len(self):  # a repeated part, since self decreases weakly
            raise ValueError(f"parts must be strictly decreasing: {tuple(self)}")
        return self


def conjugate(lam: Partition) -> Partition:
    return Partition(lam).conjugate()


# The largest output a command builds: p(40) terms, the Schur expansion of
# certify "c1^40" (5-6 s); a larger degree is rejected before evaluation.
# TERM_DEGREE = 40 is the highest degree within it, since p(41) = 44583.
TERM_BUDGET = 37338
TERM_DEGREE = 40


def check_term_budget(d: int | None) -> None:
    """Reject a degree whose p(d) terms exceed TERM_BUDGET; None passes.
    p increases, so that is every degree above TERM_DEGREE."""
    if d is not None and d > TERM_DEGREE:
        d = number_text(d, "the degree")
        raise ValueError(f"degree {d} exceeds the output budget: "
                         f"p({d}) > {TERM_BUDGET} terms")


def number_text(n: int, what: str = "a coefficient") -> str:
    """str(n); a number longer than Python turns into text (its int/str
    digit limit) exceeds the output budget, and what names it."""
    try:
        return str(n)
    except ValueError:
        raise ValueError(f"{what} exceeds the output budget: more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def degree_list(degrees) -> str:
    """Sorted degrees for an error message; more than four are elided."""
    ds = [number_text(d, "a degree") for d in sorted(degrees)]
    if len(ds) <= 4:
        return f"[{', '.join(ds)}]"
    return f"[{ds[0]}, {ds[1]}, {ds[2]}, ..., {ds[-1]}], {len(ds)} in all"

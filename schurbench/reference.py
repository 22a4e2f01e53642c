"""Reference mathematics for checking schurcalc outputs.

Nothing here imports schurcalc.  Polynomials in the Chern generators
c_k = e_k are dicts from a monomial, written as the weakly decreasing tuple
of its generator indices (c1^2*c3 is (3, 1, 1)), to a nonzero int.
Partitions are weakly decreasing tuples of positive ints.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import factorial, prod


# -- partitions -------------------------------------------------------------

@lru_cache(maxsize=None)
def partitions(d: int, max_part: int | None = None,
               max_length: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of d with the given bounds, largest part first."""
    cap = d if max_part is None else min(d, max_part)
    slots = d if max_length is None else max_length
    if d == 0:
        return ((),)
    if slots == 0:
        return ()
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions(d - first, first, slots - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def strict_partitions(d: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if d == 0:
        return ((),)
    out = []
    for first in range(min(d, max_part), 0, -1):
        for rest in strict_partitions(d - first, first - 1):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0] if lam else 0))


def hook_length_count(lam: tuple[int, ...]) -> int:
    """Standard Young tableaux of shape lam, by the hook-length formula."""
    conj = conjugate(lam)
    hooks = prod(lam[i] - j + conj[j] - i - 1
                 for i in range(len(lam)) for j in range(lam[i]))
    return factorial(sum(lam)) // hooks


@lru_cache(maxsize=None)
def shifted_tableaux_count(mu: tuple[int, ...]) -> int:
    """Standard shifted tableaux of the strict shape mu (remove one corner at a time)."""
    if not mu:
        return 1
    total = 0
    for i, part in enumerate(mu):
        smaller = mu[:i] + ((part - 1,) if part > 1 else ()) + mu[i + 1:]
        if all(a > b for a, b in zip(smaller, smaller[1:])):
            total += shifted_tableaux_count(smaller)
    return total


def rectangle_dual(lam: tuple[int, ...], r: int, n: int) -> tuple[int, ...]:
    padded = lam + (0,) * (r - len(lam))
    return tuple(part for part in ((n - r) - padded[r - 1 - i] for i in range(r)) if part)


def strict_complement(mu: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(k for k in range(n, 0, -1) if k not in mu)


def ssyt_weights(shape: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Content vectors (w_1..w_n) of all semistandard tableaux of shape, entries <= n."""
    cells = [(i, j) for i, length in enumerate(shape) for j in range(length)]
    out = []

    def fill(k: int, grid: dict):
        if k == len(cells):
            out.append(tuple(sum(1 for v in grid.values() if v == e) for e in range(1, n + 1)))
            return
        i, j = cells[k]
        low = max(grid.get((i, j - 1), 1), grid.get((i - 1, j), 0) + 1)
        for value in range(low, n + 1):
            grid[(i, j)] = value
            fill(k + 1, grid)
        grid.pop((i, j), None)

    fill(0, {})
    return out


# -- polynomials in the c_k -------------------------------------------------

def poly_add(a: dict, b: dict, factor: int = 1) -> dict:
    out = dict(a)
    for mono, coeff in b.items():
        value = out.get(mono, 0) + factor * coeff
        if value:
            out[mono] = value
        else:
            out.pop(mono, None)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(sorted(ma + mb, reverse=True))
            out[mono] = out.get(mono, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def truncate(p: dict, rank: int) -> dict:
    """Set c_k = 0 for k > rank."""
    return {m: c for m, c in p.items() if not m or m[0] <= rank}


@lru_cache(maxsize=None)
def _schur_poly(lam: tuple[int, ...]) -> tuple:
    # dual Jacobi-Trudi: s_lam = det(e_{lam'_i - i + j}), expanded row by row
    # over the set of columns used so far (a bitmask), signed by inversions
    conj = conjugate(lam)
    size = len(conj)
    states: dict[int, dict] = {0: {(): 1}}
    for i in range(size):
        nxt: dict[int, dict] = {}
        for mask, poly in states.items():
            for j in range(size):
                if mask >> j & 1:
                    continue
                k = conj[i] - i + j
                if k < 0:
                    continue
                sign = -1 if bin(mask >> (j + 1)).count("1") % 2 else 1
                term = {tuple(sorted(m + ((k,) if k else ()), reverse=True)): sign * c
                        for m, c in poly.items()}
                nxt[mask | 1 << j] = poly_add(nxt.get(mask | 1 << j, {}), term)
        states = nxt
    return tuple(states.get((1 << size) - 1, {}).items())


def schur_poly(lam: tuple[int, ...]) -> dict:
    """s_lam as a polynomial in the c_k, by the benchmark's own determinant expansion."""
    return dict(_schur_poly(tuple(lam)))


def from_schur(expansion: dict) -> dict:
    total: dict = {}
    for lam, coeff in expansion.items():
        total = poly_add(total, schur_poly(lam), coeff)
    return total


@lru_cache(maxsize=None)
def kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Semistandard tableaux of shape with the given content, by horizontal strips."""
    if not content:
        return 0 if shape else 1
    k, rest = content[-1], content[:-1]
    total = 0
    for inner in _strip_removals(shape, k):
        total += kostka(inner, rest)
    return total


def _strip_removals(shape: tuple[int, ...], k: int):
    """Shapes nu inside shape with shape/nu a horizontal strip of k boxes."""
    def build(i: int, left: int, prefix: tuple):
        if i == len(shape):
            if left == 0:
                yield tuple(p for p in prefix if p)
            return
        low = shape[i + 1] if i + 1 < len(shape) else 0
        for part in range(shape[i], low - 1, -1):
            taken = shape[i] - part
            if taken > left:
                break
            yield from build(i + 1, left - taken, prefix + (part,))

    yield from build(0, k, ())


def to_schur(p: dict) -> dict:
    """Schur expansion of p from e_mu = sum_lam K_{lam', mu} s_lam."""
    out: dict = {}
    for mono, coeff in p.items():
        for lam in partitions(sum(mono)):
            weight = kostka(conjugate(lam), mono)
            if weight:
                out[lam] = out.get(lam, 0) + coeff * weight
    return {lam: c for lam, c in out.items() if c}


# -- LG(n) and Gr(r, n) closed forms ----------------------------------------

def gr_c1_power(r: int, n: int, d: int) -> dict:
    """Class of c1^d in H*(Gr(r, n)): sum of f^lam s_lam over lam in the rectangle."""
    return {lam: hook_length_count(lam) for lam in partitions(d, n - r, r)}


def lg_c1_power(n: int, d: int) -> dict:
    """Class of c1^d in H*(LG(n)): sum of 2^(d - l(mu)) g(mu) Q_mu over strict mu."""
    return {mu: 2 ** (d - len(mu)) * shifted_tableaux_count(mu)
            for mu in strict_partitions(d, n)}


def schur_bundle_low_classes(lam: tuple[int, ...], n: int) -> dict:
    """s_(1), s_(2) and s_(1,1) of S^lam(E), rank(E) = n >= 2, in the Schur basis of E.

    The Chern roots of S^lam(E) are y_T = sum_i w_i(T) x_i over tableaux T.
    By symmetry p1(y) = K p1(x) and p2(y) = A p2(x) + 2B e2(x) with
    K = sum w_1, A = sum w_1^2, B = sum w_1 w_2; then
    e2(y) = (p1^2 - p2)/2, h2(y) = (p1^2 + p2)/2, p1^2 = s2 + s11, p2 = s2 - s11.
    """
    weights = ssyt_weights(lam, n)
    k = sum(w[0] for w in weights)
    a = sum(w[0] ** 2 for w in weights)
    b = sum(w[0] * w[1] for w in weights)
    return {
        (1,): {(1,): k},
        (1, 1): {(2,): (k * k - a) // 2, (1, 1): (k * k + a - 2 * b) // 2},
        (2,): {(2,): (k * k + a) // 2, (1, 1): (k * k - a + 2 * b) // 2},
    }


# -- expressions --------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|(c\d+|v1|v2|[sq]\[[\d,]*\])|(.))")


def parse_expression(text: str) -> dict:
    """Polynomial over opaque atoms ('c3', 'v1', 'q[2,1]', ...).

    Monomials are sorted tuples of atom names, with repetition.
    """
    tokens = [m.group(m.lastindex) for m in _TOKEN.finditer(text) if m.lastindex]
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ""

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        total = term()
        while peek() in ("+", "-"):
            sign = 1 if take() == "+" else -1
            total = poly_add(total, term(), sign)
        return total

    def term():
        total = factor()
        while peek() == "*":
            take()
            total = _atom_mul(total, factor())
        return total

    def factor():
        base = atom()
        if peek() == "^":
            take()
            out = {(): 1}
            for _ in range(int(take())):
                out = _atom_mul(out, base)
            return out
        return base

    def atom():
        token = take()
        if token == "(":
            inner = expr()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return inner
        if token.isdigit():
            return {(): int(token)} if int(token) else {}
        return {(token,): 1}

    out = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return out


def _atom_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(sorted(ma + mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _indices(atom: str) -> tuple[int, ...]:
    return tuple(int(x) for x in atom[2:-1].split(",") if x)


def c_polynomial(text: str) -> dict:
    """An expression in c_k and s[...] as a polynomial in the c_k."""
    total: dict = {}
    for mono, coeff in parse_expression(text).items():
        term = {(): coeff}
        for atom in mono:
            if atom.startswith("s["):
                term = poly_mul(term, schur_poly(_indices(atom)))
            elif atom.startswith("c"):
                term = poly_mul(term, {(int(atom[1:]),): 1})
            else:
                raise ValueError(f"atom {atom} is not a Chern class")
        total = poly_add(total, term)
    return total


def q_classes(text: str) -> dict:
    """A combination of q[...] with coefficients in v1, v2, as {(mu, a, b): coeff}."""
    out = {}
    for mono, coeff in parse_expression(text).items():
        qs = [atom for atom in mono if atom.startswith("q[")]
        if len(qs) != 1:
            raise ValueError(f"expected exactly one q[...] factor in {text!r}")
        out[(_indices(qs[0]), mono.count("v1"), mono.count("v2"))] = coeff
    return out


# The published tables, as printed (copied as data, independent of schurcalc).
CLASSICAL_TABLE = {
    "A_3": "c1^3 + 3*c1*c2 + 2*c3",
    "A_4": "c1^4 + 6*c1^2*c2 + 2*c2^2 + 9*c1*c3 + 6*c4",
    "A_5": "c1^5 + 10*c1^3*c2 + 25*c1^2*c3 + 10*c1*c2^2 + 38*c1*c4 + 12*c2*c3 + 24*c5",
    "I_2,2": "c2^2 - c1*c3",
    "I_2,3": "2*c1*c2^2 - 2*c1^2*c3 + 2*c2*c3 - 2*c1*c4",
    "I_2,4": "2*c1^2*c2^2 + 3*c2^3 - 2*c1^3*c3 + 2*c1*c2*c3 - 3*c3^2 - 5*c1^2*c4"
             " + 9*c2*c4 - 6*c1*c5",
}

LEGENDRIAN_TABLE = {
    "A_2": "q[1]",
    "A_3": "3*q[2] + v2*q[1]",
    "A_4": "12*q[3] + 3*q[2,1] + (3*v1 + 7*v2)*q[2] + (v1*v2 + v2^2)*q[1]",
    "D_4": "q[2,1]",
    "A_5": "60*q[4] + 27*q[3,1] + (6*v1 + 16*v2)*q[2,1] + (39*v1 + 47*v2)*q[3]"
           " + (6*v1^2 + 22*v1*v2 + 12*v2^2)*q[2] + (2*v1^2*v2 + 3*v1*v2^2 + v2^3)*q[1]",
    "D_5": "6*q[3,1] + 4*v2*q[2,1]",
    "P_8": "q[3,2,1]",
    "P_9": "12*q[4,2,1] + 12*v2*q[3,2,1]",
}

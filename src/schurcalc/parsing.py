"""Expression grammar for the command-line front end.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' NAT)?
    atom   := NAT | GEN | BASIS | '(' expr ')'
    GEN    := 'c' NAT | "c'" NAT | 'v1' | 'v2'
    BASIS  := ('s' | 'q') '[' NAT (',' NAT)* ']'

Whitespace is insignificant.  There is no implicit multiplication and no
unary minus; subtraction is only binary.  Indices of s[...] must be weakly
decreasing, of q[...] strictly decreasing.  Errors carry the offending
position in the input.

evaluate folds a syntax tree with the values an atom function gives its
leaves: evaluate_text reads a c-polynomial.  The reading of the degrees and
families that the tree alone shows, which the expression commands check
before they evaluate, and the evaluation on a basis, the Schur basis of
to-schur and certify and the Schubert basis of a ring for gr/lg reduce and
integrate, are in schureval.py, so a library process that evaluates a
c-polynomial compiles neither.
"""

import sys
from collections import namedtuple

from .partitions import FAMILY_C, FAMILY_CPRIME, FAMILY_V1, FAMILY_V2, Partition


# Deepest parenthesis nesting the parser accepts; the recursive descent and
# the evaluator both recurse once per level.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- AST --------------------------------------------------------------------


Num = namedtuple("Num", "value")
Gen = namedtuple("Gen", "family index", defaults=(0,))
Basis = namedtuple("Basis", "kind parts")  # 's' or 'q'; a tuple of ints
Pow = namedtuple("Pow", "base exponent")
Prod = namedtuple("Prod", "factors")  # a tuple of expressions
Sum = namedtuple("Sum", "first rest")  # rest: a tuple of ('+' | '-', term) pairs


Expression = Num | Gen | Basis | Pow | Prod | Sum


# -- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_nat(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error("expected a natural number")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # longer than Python's int/str digit limit
            digits, self.pos = self.pos - start, start
            self.error(f"a number of {digits} digits exceeds the limit of "
                       f"{sys.get_int_max_str_digits()} digits")

    def parse(self) -> Expression:
        expr = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.peek()!r}")
        return expr

    def parse_expr(self) -> Expression:
        first = self.parse_term()
        rest = []
        while True:
            self.skip_ws()
            if self.peek() in ("+", "-"):
                op = self.peek()
                self.pos += 1
                rest.append((op, self.parse_term()))
            else:
                break
        return Sum(first, tuple(rest)) if rest else first

    def parse_term(self) -> Expression:
        factors = [self.parse_factor()]
        while True:
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                factors.append(self.parse_factor())
            else:
                break
        return Prod(tuple(factors)) if len(factors) > 1 else factors[0]

    def parse_factor(self) -> Expression:
        atom = self.parse_atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            exponent = self.take_nat()
            return Pow(atom, exponent)
        return atom

    def parse_atom(self) -> Expression:
        self.skip_ws()
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch.isdecimal():
            return Num(self.take_nat())
        if ch == "(":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            inner = self.parse_expr()
            self.skip_ws()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            return inner
        if ch == "c":
            self.pos += 1
            family = FAMILY_C
            if self.peek() == "'":
                self.pos += 1
                family = FAMILY_CPRIME
            index = self.take_nat()
            if index < 1:
                self.error("generator index must be positive")
            return Gen(family, index)
        if ch == "v":
            self.pos += 1
            if self.peek() == "1":
                self.pos += 1
                return Gen(FAMILY_V1)
            if self.peek() == "2":
                self.pos += 1
                return Gen(FAMILY_V2)
            self.error("expected v1 or v2")
        if ch in ("s", "q"):
            kind = ch
            self.pos += 1
            self.skip_ws()
            if self.peek() != "[":
                self.error(f"expected '[' after {kind!r}")
            self.pos += 1
            parts = [self._basis_index()]
            while True:
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    parts.append(self._basis_index())
                elif self.peek() == "]":
                    self.pos += 1
                    break
                else:
                    self.error("expected ',' or ']'")
            for i in range(1, len(parts)):
                if kind == "s" and parts[i - 1] < parts[i]:
                    self.error(f"s-indices must be weakly decreasing: {parts}")
                if kind == "q" and parts[i - 1] <= parts[i]:
                    self.error(f"q-indices must be strictly decreasing: {parts}")
            return Basis(kind, tuple(parts))
        self.error(f"unexpected {ch!r}")

    def _basis_index(self) -> int:
        self.skip_ws()
        value = self.take_nat()
        if value < 1:
            self.error("basis indices must be positive")
        return value


def parse(text: str) -> Expression:
    """Parse an expression; raises ParseError with a position on bad input."""
    return _Parser(text).parse()


# -- evaluation -------------------------------------------------------------


def _polynomial_atom(expr: Num | Gen | Basis) -> "CPolynomial":
    """A leaf as a polynomial; s and q atoms expand to their defining
    c-polynomials (s by the dual Pieri rule, q via Q-tilde), whose builders
    check their weight against the output budget.  The polynomial layer is
    imported here, so an expression that is not evaluated to a polynomial
    never loads it."""
    from .polynomial import CPolynomial

    if isinstance(expr, Num):
        return CPolynomial.constant(expr.value)
    if isinstance(expr, Gen):
        return CPolynomial.gen(expr.family, expr.index)
    if expr.kind == "s":
        from .schur import schur_dual_jt

        return schur_dual_jt(Partition(expr.parts))
    from .qtilde import qtilde

    return qtilde(Partition(expr.parts))


def evaluate(expr: Expression, atom=_polynomial_atom):
    """Fold an AST bottom-up: atom maps each Num, Gen and Basis leaf to a
    value, and the values' own +, -, * and ** combine them."""
    if isinstance(expr, (Num, Gen, Basis)):
        return atom(expr)
    if isinstance(expr, Pow):
        return evaluate(expr.base, atom) ** expr.exponent
    if isinstance(expr, Prod):
        out = evaluate(expr.factors[0], atom)
        for f in expr.factors[1:]:
            out = out * evaluate(f, atom)
        return out
    if isinstance(expr, Sum):
        out = evaluate(expr.first, atom)
        for op, term in expr.rest:
            value = evaluate(term, atom)
            out = out + value if op == "+" else out - value
        return out
    raise TypeError(f"not an expression node: {expr!r}")


def evaluate_text(text: str) -> "CPolynomial":
    return evaluate(parse(text))

"""Expression grammar for scalars, polynomials, and automorphism pairs.

Grammar (whitespace-insensitive):

    endo    := '(' expr ',' expr ')'
    expr    := term { ('+' | '-') term }
    term    := unary { ('*' | '/') unary }
    unary   := { '-' } power
    power   := atom [ '^' INT ]
    atom    := INT | 'z' '(' INT ')' | 'x1' | 'x2' | '(' expr ')'
    INT     := [0-9]+

Names are ASCII (a letter, then letters, digits or '_'); any other
character, a non-ASCII digit or letter included, is an unexpected
character, and an INT with more digits than int() converts is too long.
Scalars: rationals as `a/b` or integers, roots of unity as `z(m)` meaning
e^(2*pi*i/m) with m a prime power.  Constants are evaluated in the field
(CycNum); a value becomes a SparsePoly only where it meets x1 or x2, so a
scalar, and a divisor, is an expression that mentions neither x1 nor x2.
Division requires a nonzero scalar divisor.  Parentheses nest at most
MAX_NESTING deep, so that no input exhausts the recursion limit.  The
printers on CycNum/SparsePoly/PlaneEndo emit canonical forms this grammar
parses back bit-exactly.
"""

from __future__ import annotations

import re
from operator import add, mul, sub

from .cyclotomic import CycNum, DomainMismatchError, prime_power_decompose
from .poly import SparsePoly
from .endo import PlaneEndo, TriangularAffine


MAX_NESTING = 100

_OPS = {"+": add, "-": sub, "*": mul, "/": mul}

# One alternative per token kind; `bad` catches every character the others
# leave, so the scan covers the whole text.
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<symbol>[-+*/^(),])|(?P<space>\s+)|(?P<bad>.)", re.DOTALL)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _Parser:
    """Recursive descent over (kind, text, offset) tokens; a symbol's kind
    is its own text, and the last token is ("end", "", len(text))."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        for m in _TOKEN.finditer(text):
            kind, word = m.lastgroup, m.group()
            tok = (word if kind == "symbol" else kind, word, m.start())
            if kind == "bad":
                raise self.error(f"unexpected character {word!r}", tok)
            if kind != "space":
                self.tokens.append(tok)
        self.tokens.append(("end", "", len(text)))
        self.pos = 0
        self.depth = 0

    def error(self, message: str, tok) -> ParseError:
        off = tok[2]
        return ParseError(message, self.text.count("\n", 0, off) + 1,
                          off - self.text.rfind("\n", 0, off))

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def integer(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:   # more digits than int() converts
            raise self.error("integer literal too long", tok) from None

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise self.error(
                f"expected {kind!r} but found {tok[1] or 'end of input'!r}", tok)
        return self.advance()

    # grammar ----------------------------------------------------------

    def binary(self, ops, operand) -> CycNum | SparsePoly:
        value = operand()
        while self.peek()[0] in ops:
            tok = self.advance()
            rhs = operand()
            if tok[0] == "/":
                if isinstance(rhs, SparsePoly):
                    raise self.error("division by a non-constant expression", tok)
                if rhs.is_zero:
                    raise self.error("division by zero", tok)
                rhs = rhs.inverse()
            try:
                value = _OPS[tok[0]](value, rhs)
            except DomainMismatchError as exc:
                raise self.error(str(exc), tok) from None
        return value

    def expr(self) -> CycNum | SparsePoly:
        return self.binary(("+", "-"), self.term)

    def term(self) -> CycNum | SparsePoly:
        return self.binary(("*", "/"), self.unary)

    def unary(self) -> CycNum | SparsePoly:
        negate = False
        while self.peek()[0] == "-":
            self.advance()
            negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self) -> CycNum | SparsePoly:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return base ** self.integer(self.expect("int"))
        return base

    def atom(self) -> CycNum | SparsePoly:
        tok = self.advance()
        kind, word, _ = tok
        if kind == "int":
            return CycNum.rational(self.integer(tok))
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", tok)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        if word == "x1":
            return SparsePoly.x1()
        if word == "x2":
            return SparsePoly.x2()
        if word == "z":
            self.expect("(")
            mtok = self.expect("int")
            self.expect(")")
            m = self.integer(mtok)
            try:
                p, n = prime_power_decompose(m)
            except ValueError as exc:
                raise self.error(str(exc), mtok) from None
            return CycNum.zeta(p, n) if n else CycNum.one()
        if kind == "name":
            raise self.error(f"unknown name {word!r} (expected x1, x2 or z)", tok)
        raise self.error(f"expected a value but found {word or 'end of input'!r}", tok)

    def poly(self) -> SparsePoly:
        value = self.expr()
        return value if isinstance(value, SparsePoly) else SparsePoly.constant(value)

    def endo(self) -> PlaneEndo:
        self.expect("(")
        f1 = self.poly()
        self.expect(",")
        f2 = self.poly()
        self.expect(")")
        return PlaneEndo(f1, f2)

    def finish(self, value):
        tok = self.peek()
        if tok[0] != "end":
            raise self.error(f"unexpected trailing input {tok[1]!r}", tok)
        return value


def parse_poly(text: str) -> SparsePoly:
    parser = _Parser(text)
    return parser.finish(parser.poly())


def parse_scalar(text: str) -> CycNum:
    parser = _Parser(text)
    value = parser.finish(parser.expr())
    if isinstance(value, SparsePoly):
        raise ParseError("expected a scalar, found a polynomial", 1, 1)
    return value


def parse_endo(text: str) -> PlaneEndo:
    parser = _Parser(text)
    return parser.finish(parser.endo())


def parse_triangular(text: str) -> TriangularAffine:
    endo = parse_endo(text)
    try:
        return TriangularAffine(endo.f1, endo.f2)
    except ValueError:
        raise ParseError("automorphism is not triangular-affine "
                         "(need (gamma*x1 + g(x2), beta*x2 + beta0))", 1, 1) from None

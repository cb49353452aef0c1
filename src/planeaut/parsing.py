"""Expression grammar for scalars, polynomials, and automorphism pairs.

Grammar (whitespace-insensitive):

    endo    := '(' expr ',' expr ')'
    expr    := term { ('+' | '-') term }
    term    := unary { ('*' | '/') unary }
    unary   := { '-' } power
    power   := atom [ '^' INT ]
    atom    := INT | 'z' '(' INT ')' | 'x1' | 'x2' | '(' expr ')'

Scalars: rationals as `a/b` or integers, roots of unity as `z(m)` meaning
e^(2*pi*i/m) with m a prime power.  Division requires a nonzero constant
divisor.  Parentheses nest at most MAX_NESTING deep, so that no input
exhausts the recursion limit.  The printers on CycNum/SparsePoly/PlaneEndo
emit canonical forms this grammar parses back bit-exactly.
"""

from __future__ import annotations

from .cyclotomic import CycNum, prime_power_decompose
from .poly import SparsePoly
from .endo import PlaneEndo, TriangularAffine


MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


_SYMBOLS = set("+-*/^(),")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r} but found {tok.text or 'end of input'!r}",
                tok.line, tok.column)
        return self.advance()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    # grammar ----------------------------------------------------------

    def expr(self) -> SparsePoly:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> SparsePoly:
        value = self.unary()
        while self.peek().kind in ("*", "/"):
            tok = self.advance()
            rhs = self.unary()
            if tok.kind == "*":
                value = value * rhs
            else:
                if not rhs.is_constant():
                    raise ParseError("division by a non-constant expression",
                                     tok.line, tok.column)
                divisor = rhs.constant_value()
                if divisor.is_zero:
                    raise ParseError("division by zero", tok.line, tok.column)
                value = value * divisor.inverse()
        return value

    def unary(self) -> SparsePoly:
        negate = False
        while self.peek().kind == "-":
            self.advance()
            negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self) -> SparsePoly:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("int")
            return base ** int(tok.text)
        return base

    def atom(self) -> SparsePoly:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return SparsePoly.constant(int(tok.text))
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 tok.line, tok.column)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        if tok.kind == "name":
            self.advance()
            if tok.text == "x1":
                return SparsePoly.x1()
            if tok.text == "x2":
                return SparsePoly.x2()
            if tok.text == "z":
                self.expect("(")
                mtok = self.expect("int")
                self.expect(")")
                try:
                    p, n = prime_power_decompose(int(mtok.text))
                except ValueError as exc:
                    raise ParseError(str(exc), mtok.line, mtok.column) from None
                if n == 0:
                    return SparsePoly.one()
                return SparsePoly.constant(CycNum.zeta(p, n))
            raise ParseError(f"unknown name {tok.text!r} (expected x1, x2 or z)",
                             tok.line, tok.column)
        self.fail(f"expected a value but found {tok.text or 'end of input'!r}")

    def endo(self) -> PlaneEndo:
        self.expect("(")
        f1 = self.expr()
        self.expect(",")
        f2 = self.expr()
        self.expect(")")
        return PlaneEndo(f1, f2)

    def finish(self):
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}",
                             tok.line, tok.column)


def parse_poly(text: str) -> SparsePoly:
    parser = _Parser(text)
    value = parser.expr()
    parser.finish()
    return value


def parse_scalar(text: str) -> CycNum:
    value = parse_poly(text)
    if not value.is_constant():
        raise ParseError("expected a scalar, found a polynomial", 1, 1)
    return value.constant_value()


def parse_endo(text: str) -> PlaneEndo:
    parser = _Parser(text)
    value = parser.endo()
    parser.finish()
    return value


def parse_triangular(text: str) -> TriangularAffine:
    endo = parse_endo(text)
    try:
        return TriangularAffine(endo.f1, endo.f2)
    except ValueError:
        raise ParseError("automorphism is not triangular-affine "
                         "(need (gamma*x1 + g(x2), beta*x2 + beta0))", 1, 1) from None

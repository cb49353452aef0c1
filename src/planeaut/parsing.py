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
Division requires a nonzero scalar divisor.  An expr that is a '+'/'-'
chain of q, z(m), z(m)^e and q*z(m)^e terms (q an INT or INT/INT, after any
unary '-') up to ')', ',' or the end is read in one regular-expression match
into one exponent map, and each z(m) modulus is decoded once, so a long
literal reads in linear time.  The descent, one left fold per precedence
level, reads every other expr, and each such chain with two primes, a zero
divisor, a rejected z(m) modulus or an INT too long, so that errors keep one
code path.  Tokens are scanned on demand, never over the chain reader's
text, after one up-front match that reports the first unexpected character.
A scalar power whose numerators are estimated at more than MAX_POWER_BITS
bits is an error at its exponent; roots of unity, +-1 among them, raise to
any power.  Parentheses nest at most MAX_NESTING deep, so that no input
exhausts the recursion limit.  The printers on CycNum/SparsePoly/PlaneEndo
emit canonical forms this grammar parses back bit-exactly.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache
from math import lcm
from operator import add, mul, sub

from .cyclotomic import (PRIME_LIMIT, CycNum, DomainMismatchError,
                         multiplicative_order, prime_power_decompose)
from .poly import SparsePoly
from .endo import PlaneEndo, TriangularAffine


MAX_NESTING = 100

# The most numerator bits a scalar power may be estimated at: seven times
# what Python prints of an int by default (4,300 digits).  (1+z(7))^50000,
# at the edge, takes 0.04 s (x86-64); a denser base costs more, with the
# square of its term count.
MAX_POWER_BITS = 100_000

_OPS = {"+": add, "-": sub, "*": mul, "/": mul}

# A token after any whitespace, or the end; _VALID matches up to the first
# character that starts no token (an '_' starts none, but names hold it).
_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<symbol>[-+*/^(),])|(?P<end>\Z))")
_VALID = re.compile(r"[0-9\s+*/^(),-]*(?:[A-Za-z][A-Za-z0-9_]*[0-9\s+*/^(),-]*)*")


@cache
def _chain_patterns() -> tuple[re.Pattern, re.Pattern]:
    """(term, chain), compiled on the first read: 1.4 ms kept off the import.
    A term is q, z(m), z(m)^e or q*z(m)^e, q an INT or INT/INT, after its
    signs; its groups are (signs, num, den, m, e, m, e).  A chain joins
    terms by '+'/'-', each after any unary '-'."""
    root = r"z\s*\(\s*([0-9]+)\s*\)(?:\s*\^\s*([0-9]+))?"
    body = rf"(?:([0-9]+)(?:\s*/\s*([0-9]+))?(?:\s*\*\s*{root})?|{root})"
    bare = body.replace("([0-9]+)", "[0-9]+")
    return (re.compile(r"([-+\s]*)" + body),
            re.compile(rf"\s*(?:-\s*)*{bare}(?:\s*[-+]\s*(?:-\s*)*{bare})*\s*"))


@lru_cache(maxsize=PRIME_LIMIT)
def _root(m: int) -> tuple[int, int, CycNum]:
    """(p, n, z(m)) for m = p^n, z(m) = e^(2*pi*i/m) in the field, decoded
    once per modulus; a ValueError (m not a prime power) is raised afresh
    each time."""
    p, n = prime_power_decompose(m)
    return p, n, CycNum.zeta(p, n) if n else CycNum.one()


def _power_bits(base: CycNum, e: int) -> int:
    """An estimate of the numerator bits of base^e: e times the base's
    largest numerator or denominator bit length, plus log2(terms) per factor
    for a multi-term base, whose products carry into wider numerators."""
    if not base.terms:
        return 0
    bits = max(base.den.bit_length(), *(abs(c).bit_length() for _, c in base.terms))
    return e * (bits + (len(base.terms) - 1).bit_length())


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _Parser:
    """Recursive descent over (kind, text, offset) tokens, each scanned when
    first peeked at the offset past the last one read; a symbol's kind is
    its own text, and past the last token is ("end", "", len(text))."""

    def __init__(self, text: str):
        self.text = text
        bad = _VALID.match(text).end()
        if bad < len(text):
            raise self.error(f"unexpected character {text[bad]!r}", (None, None, bad))
        self.off = 0
        self.tok = None
        self.depth = 0

    def error(self, message: str, tok) -> ParseError:
        off = tok[2]
        return ParseError(message, self.text.count("\n", 0, off) + 1,
                          off - self.text.rfind("\n", 0, off))

    def peek(self):
        if self.tok is None:
            m = _TOKEN.match(self.text, self.off)
            kind = m.lastgroup
            self.tok = (m[kind] if kind == "symbol" else kind, m[kind], m.start(kind))
        return self.tok

    def advance(self):
        tok = self.peek()
        self.off = tok[2] + len(tok[1])
        self.tok = None
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

    def step(self, tok, value, rhs) -> CycNum | SparsePoly:
        """One binary operation at tok, a mixed-prime error placed there."""
        try:
            return _OPS[tok[0]](value, rhs)
        except DomainMismatchError as exc:
            raise self.error(str(exc), tok) from None

    def chain(self) -> CycNum | None:
        """The value of a chain of rational-times-root terms that is
        the whole expression, up to ')', ',' or the end, read in one match
        and added as one exponent map; None where the descent must read it:
        another shape, two primes, a zero divisor, a z(m) modulus _root
        rejects, or an INT over int()'s digit limit."""
        text = self.text
        term, chain = _chain_patterns()
        match = chain.match(text, self.off)
        if match is None or text[match.end():match.end() + 1] not in ("", ")", ","):
            return None
        end = match.end()
        terms, prime, level, den = [], None, 0, 1
        try:
            for signs, num, d, m1, e1, m2, e2 in term.findall(text, self.off, end):
                d, m = int(d or 1), int(m1 or m2 or 1)
                p, n, _ = _root(m)
                if not d or n and prime not in (None, p):
                    return None
                if n:
                    prime, level = p, max(level, n)
                den = lcm(den, d)
                c = int(num or 1)
                terms.append((-c if signs.count("-") & 1 else c, d, m, int(e1 or e2 or 1)))
        except ValueError:
            return None
        top = prime ** level if level else 1
        emap: dict[int, int] = {}
        for c, d, m, e in terms:
            key = e % m * (top // m)
            emap[key] = emap.get(key, 0) + c * (den // d)
        self.off, self.tok = end, None
        if level:
            return CycNum._from_exponent_map(prime, level, emap, den)
        return CycNum._make(None, 0, emap, den)

    def expr(self) -> CycNum | SparsePoly:
        """A '+'/'-' chain, by chain() where it reads it, else by a left fold."""
        if (value := self.chain()) is not None:
            return value
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            tok = self.advance()
            value = self.step(tok, value, self.term())
        return value

    def term(self) -> CycNum | SparsePoly:
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            tok = self.advance()
            rhs = self.unary()
            if tok[0] == "/":
                if isinstance(rhs, SparsePoly):
                    raise self.error("division by a non-constant expression", tok)
                if rhs.is_zero:
                    raise self.error("division by zero", tok)
                rhs = rhs.inverse()
            value = self.step(tok, value, rhs)
        return value

    def unary(self) -> CycNum | SparsePoly:
        negate = False
        while self.peek()[0] == "-":
            self.advance()
            negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self) -> CycNum | SparsePoly:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.advance()
        tok = self.expect("int")
        e = self.integer(tok)
        # a constant polynomial (x2 - x2 + 3) counts as its scalar; roots of
        # unity (+-1 and z(m) among them) stay the same size
        c = base
        if isinstance(base, SparsePoly) and base.degree <= 0:
            c = base.coefficient(0, 0)
        if (isinstance(c, CycNum) and _power_bits(c, e) > MAX_POWER_BITS
                and multiplicative_order(c) is None):
            raise self.error("scalar power over the budget of "
                             f"{MAX_POWER_BITS} numerator bits", tok)
        return base ** e

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
                return _root(m)[2]
            except ValueError as exc:
                raise self.error(str(exc), mtok) from None
        if kind == "name":
            raise self.error(f"unknown name {word!r} (expected x1, x2 or z)", tok)
        raise self.error(f"expected a value but found {word or 'end of input'!r}", tok)

    def poly(self) -> SparsePoly:
        value = self.expr()
        return value if isinstance(value, SparsePoly) else SparsePoly.constant(value)

    def endo(self) -> PlaneEndo:
        self.expect("(")
        self.starts = [self.peek()]   # each component's first token
        f1 = self.poly()
        self.expect(",")
        self.starts.append(self.peek())
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
        var = next(m for m in _TOKEN.finditer(text) if m["name"] in ("x1", "x2"))
        raise parser.error("expected a scalar, found a polynomial",
                           (None, None, var.start("name")))
    return value


def parse_endo(text: str) -> PlaneEndo:
    parser = _Parser(text)
    return parser.finish(parser.endo())


def parse_triangular(text: str) -> TriangularAffine:
    parser = _Parser(text)
    endo = parser.finish(parser.endo())
    try:
        return TriangularAffine(endo.f1, endo.f2)
    except ValueError:
        try:   # placed at the second component unless it is beta*x2 + beta0
            TriangularAffine(SparsePoly.x1(), endo.f2)
            tok = parser.starts[0]
        except ValueError:
            tok = parser.starts[1]
        raise parser.error("automorphism is not triangular-affine "
                           "(need (gamma*x1 + g(x2), beta*x2 + beta0))", tok) from None

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
chain of terms up to ')', ',' or the end, each term a coefficient, a
monomial x1[^a][*x2[^b]] or x2[^b], or a coefficient '*' a monomial, where a
coefficient is a q, z(m), z(m)^e or q*z(m)^e term (q an INT or INT/INT,
after any unary '-') or a parenthesized chain of them, is read in one
regular-expression match (a chain of scalar terms alone by a narrower
pattern): each monomial's terms go into one accumulator, reduced once, and
each z(m) spelling is decoded once, so a long literal, the printers' output
among them, reads in linear time.  The descent, one left fold per
precedence level, reads every other expr, and each such chain with a
monomial that recurs after another monomial's term (where the descent's
sums may move it), two primes in one monomial's sum, a zero divisor, a
rejected z(m) modulus, an INT too long or a parenthesized coefficient past
MAX_NESTING, so that errors and term order keep one code path; its
'+'/'-' fold sums its scalar terms by one CycNum.dot up to a polynomial or
a second prime, and once a polynomial enters the fold, each term is merged
into its one term map (SparsePoly._merge_into), so a long sum is linear
there too.  Tokens are scanned on demand, never over the chain reader's
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

from .cyclotomic import (_CYC_MINUS_ONE, _CYC_ONE, MAX_POWER_BITS, PRIME_LIMIT,
                         CycNum, DomainMismatchError, _accumulator,
                         over_power_budget, phi_prime_power, prime_power_decompose)
from .poly import SparsePoly, _coerce_poly, _raw
from .endo import PlaneEndo, TriangularAffine


MAX_NESTING = 100

_OPS = {"+": add, "-": sub, "*": mul, "/": mul}

# A token after any whitespace, or the end; _VALID matches up to the first
# character that starts no token (an '_' starts none, but names hold it).
_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<symbol>[-+*/^(),])|(?P<end>\Z))")
_VALID = re.compile(r"[0-9\s+*/^(),-]*(?:[A-Za-z][A-Za-z0-9_]*[0-9\s+*/^(),-]*)*")


def _bare(pattern: str) -> str:
    """pattern with every capturing group made non-capturing."""
    return re.sub(r"(?<!\\)\((?!\?)", "(?:", pattern)


def _chain(term: str) -> str:
    """Terms joined by '+'/'-', each after any unary '-'."""
    return rf"(?:-\s*)*{term}(?:\s*[-+]\s*(?:-\s*)*{term})*"


_ROOT = r"z\s*\(\s*([0-9]+)\s*\)(?:\s*\^\s*([0-9]+))?"
_BODY = rf"(?:([0-9]+)(?:\s*/\s*([0-9]+))?(?:\s*\*\s*{_ROOT})?|{_ROOT})"


@cache
def _scalar_patterns() -> tuple[re.Pattern, re.Pattern]:
    """(scalar term, scalar chain), compiled on the first read, off the
    import.  A scalar term is q, z(m), z(m)^e or q*z(m)^e, q an INT or
    INT/INT, after its signs; its groups are (signs, num, den, m, e, m, e)."""
    return (re.compile(r"([-+\s]*)" + _BODY),
            re.compile(rf"\s*{_bare(_chain(_BODY))}\s*"))


@cache
def _poly_patterns() -> tuple[re.Pattern, re.Pattern]:
    """(term, chain), compiled on the first literal that is no scalar chain.
    A term is a coefficient, a monomial x1[^a][*x2[^b]] or x2[^b], or a
    coefficient '*' a monomial, after its signs, where a coefficient is a
    scalar term or a parenthesized scalar chain; its groups are a scalar
    term's seven, then (the parenthesized chain, x1, a, x2, b, x2, b)."""
    mono = (r"(?:(x1)(?:\s*\^\s*([0-9]+))?(?:\s*\*\s*(x2)(?:\s*\^\s*([0-9]+))?)?"
            r"|(x2)(?:\s*\^\s*([0-9]+))?)")
    # a coefficient ends its term unless '*' and a monomial follow
    term = (rf"(?:(?:{_BODY}|\(\s*({_bare(_chain(_BODY))})\s*\))"
            rf"(?:\s*\*\s*(?=x[12])|(?!\s*x))|(?=x[12])){mono}?")
    return (re.compile(r"([-+\s]*)" + term),
            re.compile(rf"\s*{_bare(_chain(term))}\s*"))


def _reach(pattern: re.Pattern, text: str, off: int) -> int | None:
    """The end of pattern's match at off where ')', ',' or the end of text
    follows it, else None."""
    match = pattern.match(text, off)
    if match is None or text[match.end():match.end() + 1] not in ("", ")", ","):
        return None
    return match.end()


def _by_monomial(terms, scalar: re.Pattern) -> tuple[dict, bool] | None:
    """(monomial -> its scalar terms (signs, num, den, m, e, m, e), whether
    some term names x1 or x2) of a chain's terms, each monomial where it
    first occurs and a leading constant where the ring's s +/- P puts it,
    as the descent's sums order them; None where a monomial recurs after
    another monomial's term, which the descent moves to the end where its
    sum was zero in between.  A ValueError at an INT too long."""
    sums: dict[tuple[int, int], list] = {}
    named, last = False, None
    for t in terms:
        inner, x1, a, x2, b, y2, c = t[7:]
        mono = (int(a or 1) if x1 else 0,
                int(b or c or 1) if x2 or y2 else 0) if x1 or y2 else (0, 0)
        if mono != last:
            if mono in sums:
                return None
            sums[mono] = []
            last = mono
        if not named and (x1 or y2):
            named = True
            if mono != (0, 0) and (0, 0) in sums and _constant_last(
                    "+" if "+" in t[0] else "-"):
                sums[(0, 0)] = sums.pop((0, 0))
        if not inner:
            sums[mono].append(t[:7])
        elif t[0].count("-") & 1:   # a negated parenthesized coefficient
            sums[mono] += [("-" + e[0], *e[1:]) for e in scalar.findall(inner)]
        else:
            sums[mono] += scalar.findall(inner)
    return sums, named


def _gather(entries) -> tuple | None:
    """(prime, level, den, [(numerator, divisor, m, e), ...]) of the scalar
    terms (signs, num, den, m, e, m, e); None at a second prime or a zero
    divisor, and a ValueError at a z(m) modulus _root rejects or an INT too
    long.  den grows by an lcm only at a divisor it is no multiple of."""
    prime, level, den, out = None, 0, 1, []
    for signs, num, d, m1, e1, m2, e2 in entries:
        d = int(d) if d else 1
        if not d:
            return None
        den = lcm(den, d) if den % d else den
        m = e = 1
        if spelling := m1 or m2:
            p, n, m, _ = _root(spelling)
            if n and prime not in (None, p):
                return None
            if n > level:   # a level above 0 has its prime already
                prime, level = p, n
            e = int(e1 or e2) if e1 or e2 else 1
        k = int(num) if num else 1
        out.append((-k if signs.count("-") & 1 else k, d, m, e))
    return prime, level, den, out


def _reduce(prime: int | None, level: int, den: int, entries) -> CycNum:
    """The sum of the (numerator, divisor, m, e) terms numerator/divisor *
    z(m)^e, lifted into one accumulator over den and reduced once."""
    top = prime ** level if level else 1
    acc = _accumulator(phi_prime_power(prime, level), top)
    for k, d, m, e in entries:
        acc[e % m * (top // m)] += k * (den // d)
    return CycNum._canon(prime, level, acc, den)


@cache
def _constant_last(op: str) -> bool:
    """Whether the ring's s op P, for a scalar s and a polynomial P with no
    constant term, puts s's term after P's terms; asked of the ring once."""
    return next(iter(_OPS[op](CycNum.rational(2), SparsePoly.x1())._terms)) != (0, 0)


@lru_cache(maxsize=PRIME_LIMIT)
def _root(spelling: str) -> tuple[int, int, int, CycNum]:
    """(p, n, m, z(m)) for the modulus m = p^n spelled in digits, z(m) =
    e^(2*pi*i/m) in the field, decoded once per spelling; a ValueError (m
    not a prime power, or more digits than int() converts) is raised afresh
    each time."""
    p, n = prime_power_decompose(m := int(spelling))
    return p, n, m, CycNum.zeta(p, n) if n else CycNum.one()


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

    def chain(self) -> CycNum | SparsePoly | None:
        """The value of a chain of coefficient-times-monomial terms that is
        the whole expression, up to ')', ',' or the end, read in one match:
        each monomial's rationals and roots are added into one accumulator
        and reduced once, and zero sums dropped.  A SparsePoly where some
        term names x1 or x2, else a CycNum; None where the descent must read
        it: another shape, a monomial that recurs after another monomial's
        term, two primes in one monomial's sum, a zero divisor, a z(m)
        modulus _root rejects, an INT over int()'s digit limit, or a
        parenthesized coefficient at the nesting limit.  The terms keep the
        order the descent's sums give them: each monomial where it first
        occurs, and a leading constant where the ring's s +/- P puts it."""
        text, off = self.text, self.off
        scalar, scalars = _scalar_patterns()
        named = False
        try:
            if (end := _reach(scalars, text, off)) is not None:
                # most literals are scalar chains; their own pattern, with
                # 7 groups a term and no monomials to file, reads them faster
                sums = {(0, 0): scalar.findall(text, off, end)}
            else:
                term, chain = _poly_patterns()
                if (end := _reach(chain, text, off)) is None or (
                        self.depth == MAX_NESTING and "(" in text[off:end]):
                    return None
                if (filed := _by_monomial(term.findall(text, off, end), scalar)) is None:
                    return None
                sums, named = filed
            for mono, entries in sums.items():
                if (acc := _gather(entries)) is None:
                    return None
                sums[mono] = acc
        except ValueError:
            return None
        self.off, self.tok = end, None
        if not named:
            return _reduce(*sums[(0, 0)])
        return _raw({mono: c for mono, acc in sums.items() if (c := _reduce(*acc))})

    @staticmethod
    def total(value: CycNum, scalars) -> CycNum:
        """value plus or minus each of the (operator token, CycNum) scalars,
        all over value's prime or rational, reduced by one CycNum.dot."""
        return CycNum.dot([(value, _CYC_ONE)] + [
            (rhs, _CYC_ONE if tok[0] == "+" else _CYC_MINUS_ONE) for tok, rhs in scalars])

    def expr(self) -> CycNum | SparsePoly:
        """A '+'/'-' chain, by chain() where it reads it, else by a left fold;
        its scalar terms up to a polynomial, a second prime or the end are
        summed once (total), and once a polynomial enters the fold, the fold
        owns it and merges each right-hand side into its term map, in time
        linear in that side."""
        if (value := self.chain()) is not None:
            return value
        value, owned, scalars, prime = self.term(), False, [], None
        while self.peek()[0] in ("+", "-"):
            tok = self.advance()
            rhs = self.term()
            if isinstance(value, CycNum):
                prime = prime or value.prime
                if isinstance(rhs, CycNum) and rhs.prime in (None, prime or rhs.prime):
                    prime = prime or rhs.prime
                    scalars.append((tok, rhs))
                    continue
                # a polynomial or a second prime is added to the terms' sum
                # pairwise, so two primes fail where a pairwise fold fails
                value, scalars, prime = self.total(value, scalars), [], None
            if not owned:
                value = self.step(tok, value, rhs)
                owned = isinstance(value, SparsePoly)   # a new SparsePoly
                continue
            try:   # value +/- rhs, as SparsePoly's + and - form it
                value._merge_into(_coerce_poly(rhs), 1 if tok[0] == "+" else -1)
            except DomainMismatchError as exc:
                raise self.error(str(exc), tok) from None
        return self.total(value, scalars) if isinstance(value, CycNum) else value

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
        caret = self.advance()
        tok = self.expect("int")
        e = self.integer(tok)
        # a constant polynomial (x2 - x2 + 3) counts as its scalar; roots of
        # unity (+-1 and z(m) among them) stay the same size
        c = base
        if isinstance(base, SparsePoly) and base.degree <= 0:
            c = base.coefficient(0, 0)
        if isinstance(c, CycNum) and over_power_budget(c, e):
            raise self.error("scalar power over the budget of "
                             f"{MAX_POWER_BITS} numerator bits", tok)
        try:
            return base ** e
        except DomainMismatchError as exc:
            raise self.error(str(exc), caret) from None

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
            try:
                return _root(mtok[1])[3]
            except ValueError as exc:
                self.integer(mtok)   # an INT too long is reported as such
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

"""Sparse bivariate polynomials over the cyclotomic coefficient field.

Terms are stored as a map from (deg_x1, deg_x2) to a nonzero CycNum.  The
zero polynomial has degree NEG_INF so that deg(f*g) = deg f + deg g holds
without special cases.  A product and a substitution gather the pairs of
factors of their terms by monomial in one accumulator, _collect, and reduce
each output coefficient once, by one CycNum.dot, unless no two terms can
meet: a product with a one-term factor shifts the other's exponents and
scales its coefficients, and a substitution of two monomials with
independent exponent vectors rewrites each term once.  A sum copies the
left operand's term map and merges the right one into it (_merge_into),
adding the two coefficients of each monomial the operands share.
"""

from __future__ import annotations

from .cyclotomic import CycNum, DomainMismatchError, as_cycnum

Monomial = tuple[int, int]

NEG_INF = float("-inf")


_PRINT_KEY = lambda m: (m[0] + m[1], m[1])  # ascending degree, x1-part first


class SparsePoly:
    """Polynomial in x1, x2 with exact cyclotomic coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, CycNum] | None = None):
        clean: dict[Monomial, CycNum] = {}
        if terms:
            for mono, coeff in terms.items():
                c = as_cycnum(coeff)
                if c.is_zero:
                    continue
                e1, e2 = mono
                if e1 < 0 or e2 < 0:
                    raise ValueError(f"negative exponent in monomial {mono}")
                clean[(e1, e2)] = c
        self._terms = clean

    # -- construction --------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "SparsePoly":
        return cls({(0, 0): as_cycnum(c)})

    @classmethod
    def one(cls) -> "SparsePoly":
        return cls.constant(1)

    @classmethod
    def x1(cls) -> "SparsePoly":
        return cls({(1, 0): CycNum.one()})

    @classmethod
    def x2(cls) -> "SparsePoly":
        return cls({(0, 1): CycNum.one()})

    @classmethod
    def monomial(cls, e1: int, e2: int, coeff=1) -> "SparsePoly":
        return cls({(e1, e2): as_cycnum(coeff)})

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Iterator over (monomial, coefficient) pairs in print order."""
        for mono in sorted(self._terms, key=_PRINT_KEY):
            yield mono, self._terms[mono]

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(e1 + e2 for e1, e2 in self._terms)

    def coefficient(self, e1: int, e2: int) -> CycNum:
        return self._terms.get((e1, e2), CycNum.zero())

    def involves_x1(self) -> bool:
        return any(e1 for e1, _ in self._terms)

    def x2_profile(self) -> dict[int, CycNum]:
        """Map degree -> coefficient for a polynomial in x2 alone."""
        if self.involves_x1():
            raise ValueError(f"{self} involves x1")
        return {e2: c for (_, e2), c in self._terms.items()}

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = _coerce_poly(other)
        if o is None:
            return NotImplemented
        return _raw(dict(self._terms))._merge_into(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        o = _coerce_poly(other)
        if o is None:
            return NotImplemented
        return _raw(dict(self._terms))._merge_into(o, -1)

    def __rsub__(self, other):
        o = _coerce_poly(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def _merge_into(self, other: "SparsePoly", sign: int) -> "SparsePoly":
        """self + sign*other (sign +-1) formed in self's own term map, which
        only its maker may hold: the coefficients of each shared monomial
        added (or subtracted), zero sums dropped and other's new monomials
        appended, in time linear in other's terms.  Where two shared
        coefficients lie in two towers, the DomainMismatchError names the
        pair met first in self's order."""
        a, b = self._terms, other._terms
        try:
            if sign > 0:
                sums = [(mono, a[mono] + d if mono in a else d) for mono, d in b.items()]
            else:
                sums = [(mono, a[mono] - d if mono in a else -d) for mono, d in b.items()]
        except DomainMismatchError:
            for mono, c in a.items():
                if mono in b:
                    CycNum._plus(c, b[mono], sign)   # raises at the first such pair
            raise
        for mono, c in sums:
            if c:
                a[mono] = c
            else:
                del a[mono]
        return self

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            c = CycNum._coerce(other)
            if c is None:
                return NotImplemented
            if c.is_zero:
                return SparsePoly.zero()
            return _raw({m: t * c for m, t in self._terms.items()})
        a, b = self._terms, other._terms
        products = (((a1 + b1, a2 + b2), (c, d))
                    for (a1, a2), c in a.items() for (b1, b2), d in b.items())
        if len(a) == 1 or len(b) == 1:
            # a one-term factor shifts the other's exponents: no two products
            # meet, and a product of nonzero coefficients is nonzero
            return _raw({mono: c * d for mono, (c, d) in products})
        return _collect(products)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return _cached_pow(self, e, {0: _ONE, 1: self})

    # -- substitution -----------------------------------------------------

    def substitute(self, s1: "SparsePoly", s2: "SparsePoly") -> "SparsePoly":
        """Evaluate self at x1 = s1, x2 = s2 by exact expansion.

        Powers of s1 and s2 are memoized, and a term free of x1 or x2 takes
        the other power as it is, with no x^0 factor.  Each term c*x1^e1*x2^e2
        of self pairs c with every coefficient of s1^e1 * s2^e2, and all the
        pairs go into one accumulator, _collect, which reduces each output
        coefficient once.  Monomials s1 and s2 whose exponent vectors are
        independent send distinct terms to distinct monomials, so each term
        is rewritten once: its coefficient times the scalar powers, cached.
        """
        if len(s1._terms) == 1 == len(s2._terms):
            ((u1, u2), c1), = s1._terms.items()
            ((v1, v2), c2), = s2._terms.items()
            if u1 * v2 != u2 * v1:
                pow1, pow2 = {0: CycNum.one(), 1: c1}, {0: CycNum.one(), 1: c2}
                for e1, e2 in self._terms:
                    if e1 not in pow1:
                        pow1[e1] = c1 ** e1
                    if e2 not in pow2:
                        pow2[e2] = c2 ** e2
                # every product of scalar powers before any term's product, as
                # in the general path, so a two-tower error names the same pair
                parts = [((e1 * u1 + e2 * v1, e1 * u2 + e2 * v2), c, pow1[e1] * pow2[e2])
                         for (e1, e2), c in self._terms.items()]
                return _raw({mono: d * c for mono, c, d in parts})
        cache1: dict[int, SparsePoly] = {0: _ONE, 1: s1}
        cache2: dict[int, SparsePoly] = {0: _ONE, 1: s2}

        def part(e1: int, e2: int) -> SparsePoly:
            p1, p2 = _cached_pow(s1, e1, cache1), _cached_pow(s2, e2, cache2)
            return p1 * p2 if e1 and e2 else p1 if e1 else p2

        return _collect((mono, (d, c)) for (e1, e2), c in self._terms.items()
                        for mono, d in part(e1, e2)._terms.items())

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        o = _coerce_poly(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    __hash__ = None

    def __str__(self):
        if not self._terms:
            return "0"
        return " + ".join(_term_str(mono, c) for mono, c in self.terms())

    def __repr__(self):
        return f"SparsePoly({str(self)!r})"


_ONE = SparsePoly.one()


def _raw(terms: dict[Monomial, CycNum]) -> SparsePoly:
    p = SparsePoly.__new__(SparsePoly)
    p._terms = terms
    return p


def _collect(products) -> SparsePoly:
    """The sum of the (monomial, (c, d)) products c*d: one CycNum.dot per
    monomial, so a coefficient is reduced once, and zero sums dropped."""
    groups: dict[Monomial, list[tuple[CycNum, CycNum]]] = {}
    for mono, pair in products:
        groups.setdefault(mono, []).append(pair)
    sums = ((mono, CycNum.dot(pairs)) for mono, pairs in groups.items())
    return _raw({mono: c for mono, c in sums if not c.is_zero})


def _coerce_poly(value) -> SparsePoly | None:
    if isinstance(value, SparsePoly):
        return value
    c = CycNum._coerce(value)
    if c is None:
        return None
    return SparsePoly.zero() if c.is_zero else _raw({(0, 0): c})


def _cached_pow(base: SparsePoly, e: int, cache: dict[int, SparsePoly]) -> SparsePoly:
    hit = cache.get(e)
    if hit is not None:
        return hit
    if len(base._terms) == 1:
        ((e1, e2), c), = base._terms.items()
        out = _raw({(e1 * e, e2 * e): c ** e})
    else:
        half = _cached_pow(base, e // 2, cache)
        out = half * half
        if e & 1:
            out = out * base
    cache[e] = out
    return out


def _mono_str(mono: Monomial) -> str:
    e1, e2 = mono
    parts = []
    if e1:
        parts.append("x1" if e1 == 1 else f"x1^{e1}")
    if e2:
        parts.append("x2" if e2 == 1 else f"x2^{e2}")
    return "*".join(parts)


def _term_str(mono: Monomial, coeff: CycNum) -> str:
    if mono == (0, 0):
        return str(coeff)
    ms = _mono_str(mono)
    if coeff.is_one:
        return ms
    if coeff.is_minus_one:
        return "-" + ms
    cs = str(coeff)
    if len(coeff.terms) > 1:
        cs = f"({cs})"
    return f"{cs}*{ms}"

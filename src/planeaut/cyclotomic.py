"""Exact arithmetic in the cyclotomic fields Q(zeta_m) for m = p^n.

A value is a sparse combination of the power basis 1, zeta, ...,
zeta^(phi(m)-1) modulo the m-th cyclotomic polynomial: the sorted
(exponent, int) pairs of its nonzero numerators over one positive
denominator, which shares no factor with them (Cohen, GTM 138, 4.2).  A
product then reduces once per value, not once per coefficient, and a sum of
any number of products (CycNum.dot, whose one-pair case is a product and
whose case with every second factor 1 is CycNum.sum) reduces once in all.
Products, sums and exponent maps accumulate integer numerators in a list
indexed by exponent while phi(m) <= DENSE_PHI_LIMIT, else in a dict, and one
canonicalizer, CycNum._canon, folds them below phi(m), reads the terms off
in exponent order, demotes and takes one gcd with the denominator.  A
product with a rational factor is a scaling, by 1 the other operand, and
one of two one-term values one exponent sum modulo p^n, with no accumulator.
The form is canonical: a value is stored at the lowest level that contains
it (plain rationals at level 0, zero as no terms over 1), so equality is a
plain tuple comparison.  A root zeta^j of order p^n (0 < j < p^n) is one term
when j < phi = phi(p^n), and otherwise the p - 1 terms -zeta^(j - phi +
i*p^(n-1)), i < p - 1, so one term for every p = 2 root.  A rational is a
level-0 value; a Fraction is accepted on input, returned only by as_fraction
and imported there on use; str writes each numerator over den in lowest terms.

A fixed prime p is assumed per computation; combining values from the
towers of two different primes raises DomainMismatchError.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import reduce
from itertools import compress
from math import gcd, isqrt, lcm
from operator import mul


class DomainMismatchError(ValueError):
    """Two operands live over different primes."""


# The largest prime supported: it bounds trial division for any modulus, and at
# p = 997 a dense product already takes 0.25 s and an inverse 2.3 s (x86-64).
PRIME_LIMIT = 1000


def smallest_prime_factor(m: int) -> int:
    """The smallest prime factor of m >= 2; ValueError if over PRIME_LIMIT."""
    p = next((d for d in range(2, min(isqrt(m), PRIME_LIMIT) + 1) if m % d == 0), m)
    if p > PRIME_LIMIT:
        raise ValueError(f"{m} has no prime factor up to the limit {PRIME_LIMIT}")
    return p


def is_prime(p: int) -> bool:
    return p >= 2 and smallest_prime_factor(p) == p


def _check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def phi_prime_power(p: int, n: int) -> int:
    """Euler phi of p^n (1 when n = 0)."""
    return 1 if n == 0 else p ** (n - 1) * (p - 1)


def prime_power_decompose(m: int) -> tuple[int, int]:
    """Write m = p^n with p prime, at most PRIME_LIMIT; raises ValueError
    otherwise.

    Returns (p, n); m = 1 yields (0, 0) since the prime is then irrelevant.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if m == 1:
        return 0, 0
    p = smallest_prime_factor(m)
    n = 0
    while m % p == 0:
        m //= p
        n += 1
    if m != 1:
        raise ValueError("modulus is not a prime power")
    return p, n


# The largest phi(p^n) at which a reduction accumulates its numerators in a
# list indexed by exponent, above which it takes a dict, as a sparse value of
# a huge field such as z(2^40) needs.  A list costs a few ns a slot and a
# dict about 0.4 us a term product: at phi = 64 a product of two 2-term
# values takes 7.2 us with the list against 5.1 with the dict, of two 4-term
# values 10.6 against 12.1 and of two 8-term values 18.4 against 31.6 us; at
# phi = 128 the list is slower up to 4 terms each (14.4 against 12.2 us).
# CPython 3.11, x86-64.
DENSE_PHI_LIMIT = 64

# The largest phi(p^n) in which CycNum.inverse inverts a value that is no
# rational times a root of unity: such an inverse is dense, phi terms, in
# general.  A dense value of z(2^11) (phi = 1024) inverts in 0.36 s, of
# z(2^12) in 1.6 s and of z(2^13) in 6.6 s, a two-term value of z(2^16) in
# 0.25 s (4,096 terms), and one of z(2^20) was killed for memory.  The bound
# holds z(997) and z(1024); it bounds the size of the result, not the work of
# the norm, which multiplies p - 2 conjugates at a level-1 step: a dense
# value of z(31^2) (phi = 930) takes 3.4 s.  CPython 3.11, x86-64.
MAX_INVERSE_DEGREE = 1024


def _accumulator(phi: int, size: int) -> list | defaultdict:
    """Zero numerators for the exponents below size in a field of degree
    phi: a list up to DENSE_PHI_LIMIT, else a dict that reads 0 at a missing
    exponent, as a list slot does."""
    return [0] * size if phi <= DENSE_PHI_LIMIT else defaultdict(int)


# ---------------------------------------------------------------------------

class CycNum:
    """An element of Q(zeta_{p^level}), canonically demoted to its minimal level.

    Level 0 is the rational field; such values carry prime None and mix
    freely with any tower.  The value is sum(c * zeta^e for e, c in terms)
    / den: terms holds the nonzero numerators as sorted (exponent, int)
    pairs, every exponent below phi(p^level), and den > 0 is prime to them
    all (1 for zero).
    """

    __slots__ = ("prime", "level", "terms", "den")

    def __init__(self, prime: int | None, level: int, terms: tuple, den: int = 1):
        # assumes canonical data; use the factory methods below
        self.prime = prime
        self.level = level
        self.terms = terms
        self.den = den

    # -- construction ------------------------------------------------------

    @classmethod
    def _make(cls, prime: int | None, level: int, terms: list,
              den: int = 1) -> "CycNum":
        """The canonical form of the nonzero (exponent, numerator) terms, in
        exponent order, over den > 0: demoted while every exponent is a
        multiple of p (the last exponent settles most values), then divided
        by one gcd with den."""
        while level and not (terms and terms[-1][0] % prime) and not any(
                e % prime for e, _ in terms):
            terms = [(e // prime, c) for e, c in terms]
            level -= 1
        if den != 1 and (g := gcd(den, *[c for _, c in terms])) != 1:
            terms = [(e, c // g) for e, c in terms]
            den //= g
        return cls(prime if level else None, level, tuple(terms), den)

    @classmethod
    def _canon(cls, p: int | None, n: int, acc, den: int = 1) -> "CycNum":
        """The canonical form of sum(c * zeta_{p^n}^e for e, c in acc) / den,
        acc from _accumulator: a list of at most 2 p^n slots, folded by
        x^(p^n) = 1 and read off in exponent order, or a dict of any
        exponents, reduced modulo p^n and sorted.  With q = p^(n-1),
        Phi_{p^n}(x) = 1 + x^q + ... + x^((p-1)q) then lands each
        x^(phi + j), j < q, below phi = phi(p^n) in one step."""
        if type(acc) is list:
            if n and len(acc) > (phi := p ** (n - 1) * (p - 1)):
                q = phi // (p - 1)
                m = phi + q
                for e in range(m, len(acc)):   # x^m = 1
                    acc[e - m] += acc[e]
                for e in range(phi, min(m, len(acc))):
                    if c := acc[e]:
                        for r in range(e - phi, phi, q):
                            acc[r] -= c
                del acc[phi:]
            return cls._make(p, n, list(compress(enumerate(acc), acc)), den)
        q = p ** (n - 1)
        m, phi = q * p, q * (p - 1)
        out: dict[int, int] = {}
        for e, c in acc.items():
            e %= m
            if e < phi:
                out[e] = out.get(e, 0) + c
            else:
                for r in range(e - phi, phi, q):
                    out[r] = out.get(r, 0) - c
        return cls._make(p, n, sorted([t for t in out.items() if t[1]]), den)

    @staticmethod
    def _monomial(p: int, n: int, e: int, c: int, den: int = 1) -> "CycNum":
        """c * zeta_{p^n}^e / den, c != 0: one term at e mod p^n below phi,
        and above it the p - 1 terms -c*zeta^r, one term for p = 2."""
        q = p ** (n - 1)
        phi = q * (p - 1)
        e %= q * p
        if e >= phi:
            if p != 2:
                return CycNum._make(p, n, [(r, -c) for r in range(e - phi, phi, q)], den)
            e, c = e - phi, -c
        while n and e % p == 0:
            e //= p
            n -= 1
        g = gcd(c, den)
        return CycNum(p if n else None, n, ((e, c // g),), den // g)

    @classmethod
    def rational(cls, value) -> "CycNum":
        if isinstance(value, int):
            num, den = int(value), 1
        else:   # a Fraction or another rational, in lowest terms
            num, den = value.numerator, value.denominator
        return cls(None, 0, ((0, num),), den) if num else _CYC_ZERO

    @classmethod
    def zero(cls) -> "CycNum":
        return _CYC_ZERO

    @classmethod
    def one(cls) -> "CycNum":
        return _CYC_ONE

    @classmethod
    def zeta(cls, p: int, level: int, exp: int = 1) -> "CycNum":
        """zeta_{p^level}^exp as a field element."""
        _check_prime(p)
        if level < 0:
            raise ValueError("level must be nonnegative")
        if level == 0:
            return cls.one()
        return cls._monomial(p, level, exp, 1)

    @classmethod
    def _from_exponent_map(cls, p: int, n: int, emap: dict[int, int],
                           den: int = 1) -> "CycNum":
        """Reduce a zeta-exponent/numerator map, any int exponents, over den
        modulo the cyclotomic polynomial (_canon)."""
        m = p ** n
        acc = _accumulator(phi_prime_power(p, n), m)
        for e, c in emap.items():
            acc[e % m] += c
        return cls._canon(p, n, acc, den)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.den == 1 and self.terms == _ONE_TERMS

    @property
    def is_minus_one(self) -> bool:
        return self.den == 1 and self.terms == _MINUS_ONE_TERMS

    def as_fraction(self):
        from fractions import Fraction
        if self.level != 0:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.terms[0][1], self.den) if self.terms else Fraction(0)

    def modulus(self) -> int:
        """The m of the minimal field Q(zeta_m) containing the value."""
        return 1 if self.level == 0 else self.prime ** self.level

    def _lift(self, p: int, n: int) -> tuple[tuple[int, int], ...]:
        """The numerators of the canonical embedding into Q(zeta_{p^n})."""
        if self.level == n:
            return self.terms
        f = p ** (n - self.level)
        return tuple([(e * f, c) for e, c in self.terms])

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CycNum | None":
        if isinstance(value, CycNum):
            return value
        if isinstance(value, int) or hasattr(value, "denominator"):
            return CycNum.rational(value)
        return None

    @staticmethod
    def dot(pairs) -> "CycNum":
        """sum(x * y for x, y in pairs) over one prime, reduced once.

        Both factors of every pair are lifted (below phi already) to the top
        level, over the lcm of the x.den * y.den, and convolved into one
        accumulator for one _canon: 2*phi - 1 slots where some pair has two
        irrational factors, whose exponent sums reach 2*phi - 2, else phi
        slots, which no exponent leaves.  A single pair with a rational
        factor is a scaling, by 1 the other operand, and one of two one-term
        factors one exponent sum modulo p^n (_monomial).  A second prime
        raises DomainMismatchError, even where a pairwise fold would first
        cancel to a rational.
        """
        if len(pairs) == 1:
            (x, y), = pairs
            if x.level == 0 or y.level == 0:
                scalar, val = (y, x) if y.level == 0 else (x, y)
                if not scalar.terms:
                    return _CYC_ZERO
                (_, s), = scalar.terms
                if s == scalar.den:  # the factor is 1 (lowest terms, den > 0)
                    return val
                # each factor is in lowest terms, so only s against val.den
                # and scalar.den against val's numerators can share a factor
                g = gcd(s, val.den) * gcd(scalar.den, *(c for _, c in val.terms))
                return CycNum(val.prime, val.level, tuple([
                    (e, s * c // g) for e, c in val.terms]), scalar.den * val.den // g)
            if x.prime != y.prime:
                raise DomainMismatchError(f"mixed primes {x.prime} and {y.prime}")
            p, n, den, wide = x.prime, max(x.level, y.level), x.den * y.den, True
            if len(x.terms) == 1 == len(y.terms):
                # two one-term factors: one exponent sum modulo p^n
                (i, a), (j, b) = x.terms[0], y.terms[0]
                return CycNum._monomial(
                    p, n, i * p ** (n - x.level) + j * p ** (n - y.level), a * b, den)
        else:
            p, n, den, wide = None, 0, 1, False
            for pair in pairs:
                x, y = pair
                if x.level or y.level:
                    for v in pair:
                        if v.level:
                            if v.prime != p:
                                if p is not None:
                                    raise DomainMismatchError(
                                        f"mixed primes {p} and {v.prime}")
                                p = v.prime
                            if v.level > n:
                                n = v.level
                    wide = wide or (x.level and y.level)
                d = x.den * y.den
                if d != den:
                    den = lcm(den, d)
        phi = phi_prime_power(p, n)
        acc = _accumulator(phi, 2 * phi - 1 if wide else phi)
        for x, y in pairs:
            f = den // (x.den * y.den)
            if y.level:
                b = y._lift(p, n)
                for i, a in x._lift(p, n):
                    a *= f
                    for j, c in b:
                        acc[i + j] += a * c
            elif y.terms:  # a rational y scales x
                f *= y.terms[0][1]
                for i, a in x._lift(p, n):
                    acc[i] += f * a
        return CycNum._canon(p, n, acc, den)

    @staticmethod
    def sum(values) -> "CycNum":
        """The sum of a sequence of values over one prime: dot with every
        value paired with 1."""
        return CycNum.dot([(v, _CYC_ONE) for v in values])

    @staticmethod
    def _plus(x: "CycNum", y: "CycNum", sign: int = 1) -> "CycNum":
        """x + sign*y, sign = +-1: both lifted to the top level over the lcm
        of their denominators into one accumulator, with no pair form of dot."""
        if x.level and y.level and x.prime != y.prime:
            raise DomainMismatchError(f"mixed primes {x.prime} and {y.prime}")
        p, n = x.prime or y.prime, max(x.level, y.level)
        den = x.den if x.den == y.den else lcm(x.den, y.den)
        f, g = den // x.den, sign * (den // y.den)
        phi = phi_prime_power(p, n)
        acc = _accumulator(phi, phi)
        for e, c in x._lift(p, n):
            acc[e] = f * c
        for e, c in y._lift(p, n):
            acc[e] += g * c
        return CycNum._canon(p, n, acc, den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._plus(self, o)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.prime, self.level,
                      tuple((e, -c) for e, c in self.terms), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._plus(self, o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._plus(o, self, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum.dot(((self, o),))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Inverse: c*zeta^j/den, a rational times a root of unity (one term,
        or the p - 1 terms -c*zeta^(j + i*q) for j + phi), is den/c * zeta^-j
        at any level; any other value is inverted by _norm_inverse in a
        field of degree up to MAX_INVERSE_DEGREE, and raises ValueError in a
        larger one."""
        if self.is_zero:
            raise ZeroDivisionError("division by zero in the cyclotomic field")
        p, n, terms = self.prime, self.level, self.terms
        j, c = terms[0]
        if len(terms) > 1:
            q = p ** (n - 1)
            if len(terms) == p - 1 and terms == tuple((j + i * q, c) for i in range(p - 1)):
                j, c = j + q * (p - 1), -c
            elif q * (p - 1) > MAX_INVERSE_DEGREE:
                raise ValueError(f"inverse of a {len(terms)}-term value in a field of degree "
                                 f"{q * (p - 1)}, over the budget of {MAX_INVERSE_DEGREE}")
            else:
                return self._norm_inverse()
        sign = 1 if c > 0 else -1
        if not n:
            return CycNum(None, 0, ((0, sign * self.den),), sign * c)
        return CycNum._monomial(p, n, -j, sign * self.den, sign * c)

    def _norm_inverse(self) -> "CycNum":
        """Inverse by relative norms down the Galois tower.

        At level n the automorphisms zeta -> zeta^a, a = 1 + q, 1 + 2q, ... < p^n
        with q = p^(n-1) (all prime to p), fix Q(zeta_{p^(n-1)}); at n = 1 they
        are a = 2..p-1 and fix Q.
        The product c of these conjugates of u makes u*c, the relative norm,
        land at a lower level; descend until it is rational.  Then the inverse
        is the product of the cofactors c over that rational.
        """
        cofactor, norm = CycNum.one(), self
        while norm.level:
            p, n = norm.prime, norm.level
            q = p ** (n - 1)
            c = reduce(mul, [CycNum._from_exponent_map(
                p, n, {i * a: x for i, x in norm.terms}, norm.den)
                for a in range(1 + q, p ** n, q)])
            cofactor, norm = cofactor * c, norm * c
        (_, num), = norm.terms
        sign = 1 if num > 0 else -1
        return cofactor * CycNum(None, 0, ((0, sign * norm.den),), sign * num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        """Integer power; a negative exponent inverts first.  A rational is
        two integer powers, num^e / den^e, which stay in lowest terms."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if not self.level and self.terms:
            (_, num), = self.terms
            return CycNum(None, 0, ((0, num ** exponent),), self.den ** exponent)
        if exponent and len(self.terms) == 1:
            (i, c), = self.terms
            return CycNum._monomial(self.prime, self.level, i * exponent,
                                    c ** exponent, self.den ** exponent)
        result = CycNum.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.level == o.level and self.prime == o.prime
                and self.den == o.den and self.terms == o.terms)

    def __hash__(self):
        # a rational hashes as the Fraction (or int) it equals
        if self.level == 0:
            return hash(self.as_fraction())
        return hash((self.prime, self.level, self.terms, self.den))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        m, den = self.modulus(), self.den
        parts = []
        try:
            for e, num in self.terms:
                g = gcd(num, den)
                c = str(num // g) if g == den else f"{num // g}/{den // g}"
                if e == 0:
                    parts.append(c)
                    continue
                base = f"z({m})" if e == 1 else f"z({m})^{e}"
                if num == den:
                    parts.append(base)
                elif num == -den:
                    parts.append("-" + base)
                else:
                    parts.append(f"{c}*{base}")
        except ValueError:  # a numerator over Python's int-to-str digit limit
            raise ValueError("coefficient too long to print (over "
                             f"{sys.get_int_max_str_digits()} digits)") from None
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"CycNum({str(self)!r})"


_ONE_TERMS = ((0, 1),)       # the canonical terms of 1 and -1, over den 1
_MINUS_ONE_TERMS = ((0, -1),)
_CYC_ZERO = CycNum(None, 0, ())
_CYC_ONE = CycNum(None, 0, _ONE_TERMS)


def as_cycnum(value) -> CycNum:
    c = CycNum._coerce(value)
    if c is None:
        raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")
    return c


# ---------------------------------------------------------------------------

class RootOfUnity:
    """An element of the Prufer group C_{p^infty}: zeta_{p^level}^exp.

    Stored as the exponent exp/p^level in Z[1/p]/Z, in lowest terms (p does
    not divide exp unless the element is the identity).  Independent of any
    embedding into a concrete field; to_field realizes it as a CycNum.
    """

    __slots__ = ("prime", "level", "exp")

    def __init__(self, prime: int, level: int, exp: int):
        _check_prime(prime)
        if level < 0:
            raise ValueError("level must be nonnegative")
        self._set(prime, level, exp)

    def _set(self, prime: int, level: int, exp: int) -> "RootOfUnity":
        """Store zeta_{p^level}^exp in lowest terms, for a prime already
        checked and level >= 0; the path of every derived root."""
        exp %= prime ** level
        if exp == 0:
            level = 0
        else:
            while exp % prime == 0:
                exp //= prime
                level -= 1
        self.prime = prime
        self.level = level
        self.exp = exp
        return self

    @classmethod
    def one(cls, p: int) -> "RootOfUnity":
        return cls(p, 0, 0)

    @classmethod
    def from_exponent(cls, p: int, exponent) -> "RootOfUnity":
        """Build from the additive exponent j/p^n in Z[1/p]/Z, any rational."""
        _check_prime(p)
        q = as_cycnum(exponent)
        if q.level:
            raise ValueError(f"{q} is not rational")
        num, den, level = q.terms[0][1] if q.terms else 0, q.den, 0
        while den % p == 0:
            den //= p
            level += 1
        if den != 1:
            raise ValueError(
                f"exponent denominator must be a power of {p}, got {num}/{q.den}")
        return cls.__new__(cls)._set(p, level, num)

    @property
    def order(self) -> int:
        return self.prime ** self.level

    def __mul__(self, other: "RootOfUnity"):
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        if self.prime != other.prime:
            raise DomainMismatchError(
                f"mixed primes {self.prime} and {other.prime}")
        p, level = self.prime, max(self.level, other.level)
        return RootOfUnity.__new__(RootOfUnity)._set(
            p, level, self.exp * p ** (level - self.level)
            + other.exp * p ** (level - other.level))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        return RootOfUnity.__new__(RootOfUnity)._set(
            self.prime, self.level, self.exp * e)

    def inverse(self) -> "RootOfUnity":
        return self ** -1

    def to_field(self) -> CycNum:
        if self.level == 0:
            return CycNum.one()
        return CycNum._monomial(self.prime, self.level, self.exp, 1)

    def __eq__(self, other):
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        if self.level == 0 and other.level == 0:
            return True
        return (self.prime, self.level, self.exp) == (other.prime, other.level, other.exp)

    def __hash__(self):
        if self.level == 0:
            return hash((0, 0))
        return hash((self.prime, self.level, self.exp))

    def __str__(self):
        if self.level == 0:
            return "1"
        m = self.order
        return f"z({m})" if self.exp == 1 else f"z({m})^{self.exp}"

    def __repr__(self):
        from fractions import Fraction
        return f"RootOfUnity(p={self.prime}, {Fraction(self.exp, self.order)})"


def root_of_unity_splits(u: CycNum, p: int) -> list[tuple[CycNum, RootOfUnity]]:
    """Every split u = q * omega, q a level-0 CycNum, omega in C_{p^infty}.

    Read off the canonical terms at level n = max(level, 1) (a rational's
    single term sits at exponent 0 on every level): q * zeta^j is the single
    term q at j < phi, else the p-1 terms -q on the stride p^(n-1) from
    j - phi; for p = 2 both shapes are one term, giving two splits.
    """
    _check_prime(p)
    if u.level and u.prime != p:
        return []
    n = max(u.level, 1)
    phi = phi_prime_power(p, n)
    terms = u.terms
    if len(terms) == 1:
        (j, c), = terms
        q = CycNum(None, 0, ((0, c),), u.den)
        splits = [(q, RootOfUnity(p, n, j))]
        if p == 2:
            splits.append((-q, RootOfUnity(p, n, j + phi)))
        return splits
    if len(terms) == p - 1:
        j, c = terms[0]
        if terms == tuple((j + i * p ** (n - 1), c) for i in range(p - 1)):
            return [(CycNum(None, 0, ((0, -c),), u.den), RootOfUnity(p, n, j + phi))]
    return []


def multiplicative_order(u: CycNum) -> int | None:
    """Smallest t >= 1 with u^t = 1, or None if u is not a root of unity.

    Only +-omega has finite order (a rational u is read in the 2-tower).
    -omega has order lcm(2, order of omega), or less for p = 2, where the
    split with q = 1 is listed as well, so the least candidate is the order.
    """
    return min((lcm(2, omega.order) if q.is_minus_one else omega.order
                for q, omega in root_of_unity_splits(u, u.prime or 2)
                if q.is_one or q.is_minus_one), default=None)


def as_root_of_unity(u: CycNum, p: int) -> RootOfUnity | None:
    """Recognize u as an element of C_{p^infty}, or return None."""
    return next((omega for q, omega in root_of_unity_splits(u, p) if q.is_one),
                None)


# The most numerator bits a scalar power may be estimated at, where its base
# is no root of unity: seven times what Python prints of an int by default
# (4,300 digits).  (1+z(7))^50000, at the edge, takes 0.04 s (x86-64); a
# denser base costs more, with the square of its term count.
MAX_POWER_BITS = 100_000


def over_power_budget(base: CycNum, e: int) -> bool:
    """Whether base^e is estimated at more than MAX_POWER_BITS numerator bits
    and base is no root of unity (+-1 among them), which raises to any power.
    The estimate is e times the base's largest numerator or denominator bit
    length, plus log2(terms) per factor for a multi-term base, whose products
    carry into wider numerators."""
    if not base.terms:
        return False
    bits = max(base.den.bit_length(), *(abs(c).bit_length() for _, c in base.terms))
    return (e * (bits + (len(base.terms) - 1).bit_length()) > MAX_POWER_BITS
            and multiplicative_order(base) is None)

"""Exact arithmetic in the cyclotomic fields Q(zeta_m) for m = p^n.

A value is a sparse combination of the power basis 1, zeta, ...,
zeta^(phi(m)-1) modulo the m-th cyclotomic polynomial: the sorted
(exponent, Fraction) pairs of its nonzero coefficients.  The form is
canonical: a value is stored at the lowest level that contains it (plain
rationals at level 0, zero as no terms), so equality and hashing are plain
tuple comparisons, and a root of unity of any order is one term.  Dense
coefficient vectors appear only at the edges, in from_coeffs and
coeffs_at_level.

A fixed prime p is assumed per computation; combining values from the
towers of two different primes raises DomainMismatchError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import isqrt, lcm
from operator import mul

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DomainMismatchError(ValueError):
    """Two operands live over different primes."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


def _check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def phi_prime_power(p: int, n: int) -> int:
    """Euler phi of p^n (1 when n = 0)."""
    return 1 if n == 0 else p ** (n - 1) * (p - 1)


def prime_power_decompose(m: int) -> tuple[int, int]:
    """Write m = p^n with p prime; raises ValueError otherwise.

    Returns (p, n); m = 1 yields (0, 0) since the prime is then irrelevant.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if m == 1:
        return 0, 0
    p = None
    for d in range(2, isqrt(m) + 1):
        if m % d == 0:
            p = d
            break
    if p is None:
        return m, 1
    n = 0
    while m % p == 0:
        m //= p
        n += 1
    if m != 1:
        raise ValueError("modulus is not a prime power")
    return p, n


# ---------------------------------------------------------------------------

class CycNum:
    """An element of Q(zeta_{p^level}), canonically demoted to its minimal level.

    Level 0 is the rational field; such values carry prime None and mix
    freely with any tower.  terms holds the nonzero coefficients as sorted
    (exponent, Fraction) pairs, every exponent below phi(p^level).
    """

    __slots__ = ("prime", "level", "terms")

    def __init__(self, prime: int | None, level: int, terms: tuple):
        # assumes canonical data; use the factory methods below
        self.prime = prime
        self.level = level
        self.terms = terms

    # -- construction ------------------------------------------------------

    @classmethod
    def _make(cls, prime: int | None, level: int, coeffs: dict[int, Fraction]) -> "CycNum":
        terms = sorted((e, c) for e, c in coeffs.items() if c)
        while level and all(e % prime == 0 for e, _ in terms):
            terms = [(e // prime, c) for e, c in terms]
            level -= 1
        return cls(prime if level else None, level, tuple(terms))

    @classmethod
    def rational(cls, value) -> "CycNum":
        q = Fraction(value)
        return cls(None, 0, ((0, q),) if q else ())

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
        return cls._from_exponent_map(p, level, {exp: _ONE})

    @classmethod
    def from_coeffs(cls, p: int, level: int, coeffs) -> "CycNum":
        _check_prime(p)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != phi_prime_power(p, level):
            raise ValueError("coefficient vector has wrong length")
        return cls._make(p, level, dict(enumerate(cs)))

    @classmethod
    def _from_exponent_map(cls, p: int, n: int, emap: dict[int, Fraction]) -> "CycNum":
        """Reduce a zeta-exponent/coefficient map modulo the cyclotomic polynomial.

        Uses Phi_{p^n}(x) = 1 + x^q + ... + x^{(p-1)q} with q = p^(n-1), so a
        single rewrite step lands every exponent below phi(p^n).
        """
        m = p ** n
        phi = phi_prime_power(p, n)
        q = p ** (n - 1)
        out: dict[int, Fraction] = {}
        for e, c in emap.items():
            e %= m
            if e < phi:
                out[e] = out.get(e, _ZERO) + c
            else:
                for r in range(e - phi, phi, q):
                    out[r] = out.get(r, _ZERO) - c
        return cls._make(p, n, out)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_rational(self) -> bool:
        return self.level == 0

    def as_fraction(self) -> Fraction:
        if self.level != 0:
            raise ValueError(f"{self} is not rational")
        return self.terms[0][1] if self.terms else _ZERO

    def modulus(self) -> int:
        """The m of the minimal field Q(zeta_m) containing the value."""
        return 1 if self.level == 0 else self.prime ** self.level

    def coeffs_at_level(self, level: int, prime: int | None = None) -> tuple[Fraction, ...]:
        """Coefficient vector of the canonical embedding into Q(zeta_{p^level})."""
        p = self.prime if self.prime is not None else prime
        if p is None:
            raise ValueError("a prime is needed to lift a rational")
        if self.prime is not None and prime is not None and prime != self.prime:
            raise DomainMismatchError(f"value lives over p={self.prime}, not {prime}")
        if level < self.level:
            raise ValueError("cannot lower the level of an embedding")
        out = [_ZERO] * phi_prime_power(p, level)
        for e, c in self._lift(p, level):
            out[e] = c
        return tuple(out)

    def _lift(self, p: int, n: int) -> tuple[tuple[int, Fraction], ...]:
        """The terms of the canonical embedding into Q(zeta_{p^n})."""
        if self.level == n:
            return self.terms
        f = p ** (n - self.level)
        return tuple((e * f, c) for e, c in self.terms)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CycNum | None":
        if isinstance(value, CycNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CycNum.rational(value)
        return None

    def _common(self, other: "CycNum") -> tuple[int | None, int]:
        if self.level and other.level and self.prime != other.prime:
            raise DomainMismatchError(
                f"mixed primes {self.prime} and {other.prime}")
        p = self.prime if self.prime is not None else other.prime
        return p, max(self.level, other.level)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, n = self._common(o)
        out = dict(self._lift(p, n))
        for e, c in o._lift(p, n):
            out[e] = out.get(e, _ZERO) + c
        return CycNum._make(p, n, out)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.prime, self.level, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, n = self._common(o)
        if self.level == 0 or o.level == 0:
            scalar, val = (self, o) if self.level == 0 else (o, self)
            s = scalar.as_fraction()
            if not s:
                return CycNum.zero()
            return CycNum(val.prime, val.level, tuple((e, s * c) for e, c in val.terms))
        b = o._lift(p, n)
        emap: dict[int, Fraction] = {}
        for i, x in self._lift(p, n):
            for j, y in b:
                emap[i + j] = emap.get(i + j, _ZERO) + x * y
        return CycNum._from_exponent_map(p, n, emap)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Inverse by relative norms down the Galois tower.

        At level n the automorphisms zeta -> zeta^a, a = 1 + q, 1 + 2q, ... < p^n
        with q = p^(n-1) (all prime to p), fix Q(zeta_{p^(n-1)}); at n = 1 they
        are a = 2..p-1 and fix Q.
        The product c of these conjugates of u makes u*c, the relative norm,
        land at a lower level; descend until it is rational.  Then the inverse
        is the product of the cofactors c over that rational.
        """
        if self.is_zero:
            raise ZeroDivisionError("division by zero in the cyclotomic field")
        cofactor, norm = CycNum.one(), self
        while norm.level:
            p, n = norm.prime, norm.level
            q = p ** (n - 1)
            c = reduce(mul, [CycNum._from_exponent_map(
                p, n, {i * a: x for i, x in norm.terms})
                for a in range(1 + q, p ** n, q)])
            cofactor, norm = cofactor * c, norm * c
        return cofactor * CycNum.rational(1 / norm.as_fraction())

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.level == 0:
            return self * CycNum.rational(1 / o.as_fraction())
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.level and exponent and len(self.terms) == 1:
            (i, c), = self.terms
            return CycNum._from_exponent_map(
                self.prime, self.level, {i * exponent: c ** exponent})
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
                and self.terms == o.terms)

    def __hash__(self):
        return hash((self.prime, self.level, self.terms))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        m = self.modulus()
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
                continue
            base = f"z({m})" if e == 1 else f"z({m})^{e}"
            if c == 1:
                parts.append(base)
            elif c == -1:
                parts.append("-" + base)
            else:
                parts.append(f"{c}*{base}")
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"CycNum({str(self)!r})"


_CYC_ZERO = CycNum(None, 0, ())
_CYC_ONE = CycNum(None, 0, ((0, _ONE),))


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
        m = prime ** level
        exp %= m
        if exp == 0:
            level = 0
        else:
            while exp % prime == 0:
                exp //= prime
                level -= 1
        self.prime = prime
        self.level = level
        self.exp = exp

    @classmethod
    def one(cls, p: int) -> "RootOfUnity":
        return cls(p, 0, 0)

    @classmethod
    def from_exponent(cls, p: int, exponent: Fraction) -> "RootOfUnity":
        """Build from the additive exponent j/p^n in Z[1/p]/Z."""
        _check_prime(p)
        exponent = Fraction(exponent)
        den = exponent.denominator
        level = 0
        while den % p == 0:
            den //= p
            level += 1
        if den != 1:
            raise ValueError(
                f"exponent denominator must be a power of {p}, got {exponent}")
        return cls(p, level, exponent.numerator % p ** level if level else 0)

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.exp, self.prime ** self.level)

    @property
    def order(self) -> int:
        return self.prime ** self.level

    @property
    def is_identity(self) -> bool:
        return self.level == 0

    def __mul__(self, other: "RootOfUnity"):
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        if self.prime != other.prime:
            raise DomainMismatchError(
                f"mixed primes {self.prime} and {other.prime}")
        s = self.exponent + other.exponent
        return RootOfUnity.from_exponent(self.prime, s - int(s))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        s = self.exponent * e
        return RootOfUnity.from_exponent(self.prime, s - int(s))

    def inverse(self) -> "RootOfUnity":
        return self ** -1

    def to_field(self) -> CycNum:
        if self.level == 0:
            return CycNum.one()
        return CycNum.zeta(self.prime, self.level, self.exp)

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
        return f"RootOfUnity(p={self.prime}, {self.exponent})"


def root_of_unity_splits(u: CycNum, p: int) -> list[tuple[Fraction, RootOfUnity]]:
    """Every split u = q * omega with q rational and omega in C_{p^infty}.

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
        (j, q), = terms
        splits = [(q, RootOfUnity(p, n, j))]
        if p == 2:
            splits.append((-q, RootOfUnity(p, n, j + phi)))
        return splits
    if len(terms) == p - 1:
        j, q = terms[0]
        if terms == tuple((j + i * p ** (n - 1), q) for i in range(p - 1)):
            return [(-q, RootOfUnity(p, n, j + phi))]
    return []


def multiplicative_order(u: CycNum) -> int | None:
    """Smallest t >= 1 with u^t = 1, or None if u is not a root of unity.

    Only +-omega has finite order (a rational u is read in the 2-tower).
    -omega has order lcm(2, order of omega), or less for p = 2, where the
    split with q = 1 is listed as well, so the least candidate is the order.
    """
    return min((lcm(2, omega.order) if q == -1 else omega.order
                for q, omega in root_of_unity_splits(u, u.prime or 2)
                if abs(q) == 1), default=None)


def as_root_of_unity(u: CycNum, p: int) -> RootOfUnity | None:
    """Recognize u as an element of C_{p^infty}, or return None."""
    return next((omega for q, omega in root_of_unity_splits(u, p) if q == 1),
                None)

"""Quasi-cyclic subgroups of the plane automorphism group.

The diagonal copy of C_{p^infty} is conjugated by the shift map

    a = (x1 + sum_k a_k * x2^(p^k + 1), x2),

where the coefficient sequence {a_k} may have infinitely many nonzero
entries (encoded as a finite prefix plus a repeating tail).  Conjugating a
diagonal scaling by alpha of order p^n kills every term with k >= n, so
each conjugated element is a genuine polynomial automorphism and has a
closed form that this module builds directly and cross-checks against
brute-force composition.
"""

from __future__ import annotations

from math import lcm

from .cyclotomic import (CycNum, DomainMismatchError, RootOfUnity, as_cycnum,
                         _check_prime)
from .poly import SparsePoly
# compose and endo_order are unused here, but perfbench/tracing.py wraps them
from .endo import PlaneEndo, TriangularAffine, compose, conjugate, endo_order  # noqa: F401


class EventuallyPeriodic:
    """An infinite sequence: a finite prefix, then a nonempty block repeated
    forever."""

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix, tail):
        self.prefix = tuple(prefix)
        self.tail = tuple(tail)
        if not self.tail:
            raise ValueError("the repeating block must be nonempty")

    def entry(self, k: int):
        if k < 0:
            raise IndexError("sequence indices start at 0")
        if k < len(self.prefix):
            return self.prefix[k]
        return self.tail[(k - len(self.prefix)) % len(self.tail)]

    @property
    def period(self) -> int:
        return len(self.tail)

    def joint_region(self, other: "EventuallyPeriodic", k0: int = 0) -> tuple[int, int]:
        """(start, period) from which both sequences are jointly periodic."""
        start = max(k0, len(self.prefix), len(other.prefix))
        return start, lcm(self.period, other.period)

    def _key(self) -> tuple:
        return self.prefix, self.tail

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return f"{type(self).__name__}{self._key()!r}"


class CoeffSequence(EventuallyPeriodic):
    """Coefficient sequence {a_k} over Q(zeta_{p^infty}).

    A tail of None, or only zeros, is stored as the block (0,): the
    support is finite and the shift map is a polynomial automorphism.  An
    entry from the tower of another prime raises DomainMismatchError.
    """

    __slots__ = ("prime",)

    def __init__(self, prime: int, prefix=(), tail=None):
        self.prime = _check_prime(prime)
        block = () if tail is None else tuple(as_cycnum(c) for c in tail)
        if not any(block):
            block = (CycNum.zero(),)
        super().__init__((as_cycnum(c) for c in prefix), block)
        for c in self.prefix + self.tail:
            if c.level and c.prime != prime:
                raise DomainMismatchError(
                    f"entry {c} lives over p={c.prime}, not {prime}")

    coeff = EventuallyPeriodic.entry

    @property
    def has_finite_support(self) -> bool:
        return not any(self.tail)

    def _key(self) -> tuple:
        return self.prime, self.prefix, self.tail


def exponent_of(p: int, k: int) -> int:
    """The x2-exponent of the k-th shift term."""
    return p ** k + 1


def diag(alpha: RootOfUnity) -> TriangularAffine:
    """The diagonal automorphism (alpha*x1, alpha*x2)."""
    a = alpha.to_field()
    return TriangularAffine.scaling(a, a)


def series_truncation(s: CoeffSequence, n_terms: int) -> TriangularAffine:
    """The shift map keeping terms k <= n_terms: (x1 + sum a_k x2^(p^k+1), x2)."""
    if n_terms < 0:
        raise ValueError("truncation bound must be nonnegative")
    g = SparsePoly.zero()
    for k in range(n_terms + 1):
        c = s.coeff(k)
        if not c.is_zero:
            g = g + SparsePoly.monomial(0, exponent_of(s.prime, k), c)
    return TriangularAffine.shift(g)


def conj_closed_form(s: CoeffSequence, alpha: RootOfUnity) -> PlaneEndo:
    """The conjugate of diag(alpha) by the shift map, built directly.

    Equals (alpha*x1 + alpha * sum_k a_k (1 - alpha^(p^k)) x2^(p^k+1), alpha*x2);
    the scalar 1 - alpha^(p^k) vanishes once p^k is a multiple of alpha's
    order, so only k < level(alpha) contributes and the result is polynomial
    no matter how many a_k are nonzero.
    """
    if alpha.prime != s.prime:
        raise ValueError(f"root lives over p={alpha.prime}, sequence over p={s.prime}")
    p = s.prime
    af = alpha.to_field()
    f1 = SparsePoly.x1() * af
    for k in range(alpha.level):
        c = s.coeff(k)
        if c.is_zero:
            continue
        factor = af * c * (CycNum.one() - (alpha ** (p ** k)).to_field())
        if not factor.is_zero:
            f1 = f1 + SparsePoly.monomial(0, exponent_of(p, k), factor)
    return PlaneEndo(f1, SparsePoly.x2() * af)


def verify_formula(s: CoeffSequence, alpha: RootOfUnity) -> bool:
    """Check the closed form against brute-force conjugation.

    Conjugates diag(alpha) by every truncation N = level(alpha), ...,
    level(alpha) + 2; all must agree exactly with the closed form.
    """
    expected = conj_closed_form(s, alpha)
    n = alpha.level
    for trunc in range(n, n + 3):
        theta = series_truncation(s, trunc)
        if conjugate(diag(alpha), theta) != expected:
            return False
    return True

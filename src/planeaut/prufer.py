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


class CoeffSequence:
    """Coefficient sequence {a_k} over Q(zeta_{p^infty}): a finite prefix,
    then a nonempty block repeated forever.

    A tail of None, or only zeros, is stored as the block (0,): the
    support is finite and the shift map is a polynomial automorphism.  An
    entry from the tower of another prime raises DomainMismatchError.
    """

    __slots__ = ("prime", "prefix", "tail")

    def __init__(self, prime: int, prefix=(), tail=None):
        self.prime = _check_prime(prime)
        block = () if tail is None else tuple(as_cycnum(c) for c in tail)
        self.prefix = tuple(as_cycnum(c) for c in prefix)
        self.tail = block if any(block) else (CycNum.zero(),)
        for c in self.prefix + self.tail:
            if c.level and c.prime != prime:
                raise DomainMismatchError(
                    f"entry {c} lives over p={c.prime}, not {prime}")

    def coeff(self, k: int) -> CycNum:
        if k < 0:
            raise IndexError("sequence indices start at 0")
        if k < len(self.prefix):
            return self.prefix[k]
        return self.tail[(k - len(self.prefix)) % len(self.tail)]

    @property
    def period(self) -> int:
        return len(self.tail)

    def joint_region(self, other: "CoeffSequence", k0: int = 0) -> tuple[int, int]:
        """(start, period) from which both sequences are jointly periodic."""
        start = max(k0, len(self.prefix), len(other.prefix))
        return start, lcm(self.period, other.period)

    def __eq__(self, other):
        if type(other) is not CoeffSequence:
            return NotImplemented
        return (self.prime == other.prime and self.prefix == other.prefix
                and self.tail == other.tail)

    def __repr__(self):
        return f"CoeffSequence{(self.prime, self.prefix, self.tail)!r}"


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
    return TriangularAffine.shift(SparsePoly(
        {(0, exponent_of(s.prime, k)): s.coeff(k) for k in range(n_terms + 1)}))


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
    terms = {(1, 0): af}
    for k in range(alpha.level):
        c = s.coeff(k)
        if not c.is_zero:  # spares alpha^(p^k) for a zero a_k
            terms[0, exponent_of(p, k)] = af * c * (1 - (alpha ** (p ** k)).to_field())
    return PlaneEndo(SparsePoly(terms), SparsePoly.x2() * af)


def verify_formula(s: CoeffSequence, alpha: RootOfUnity) -> bool:
    """Check the closed form against one brute-force conjugation.

    Conjugates diag(alpha) by the truncation g at N + 2, N = level(alpha).  The
    result (alpha*x1 + alpha*g(x2) - g(alpha*x2), alpha*x2) is additive in the
    terms of g, term k on its own monomial x2^(p^k+1) with the scalar
    alpha*a_k*(1 - alpha^(p^k)), zero for k >= N.  So it equals the closed form
    exactly when the conjugates by the truncations at N and N + 1 also do, and
    it still covers the dropped terms k = N, N+1 and N+2.
    """
    theta = series_truncation(s, alpha.level + 2)
    return conjugate(diag(alpha), theta) == conj_closed_form(s, alpha)

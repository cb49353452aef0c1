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
                         is_prime)
from .poly import SparsePoly
from .endo import PlaneEndo, TriangularAffine, compose, conjugate, endo_order
from .parsing import parse_scalar


_KINDS = {int: "an integer", str: "a string", dict: "an object",
          list: "a list of strings"}
_REQUIRED = object()


def manifest_field(record: dict, key: str, kind: type, default=_REQUIRED):
    """record[key] (or the default, if given, when it is absent) checked to be
    a JSON value of the kind; a bad field raises ValueError naming it."""
    if key not in record:
        if default is _REQUIRED:
            raise ValueError(f"manifest field {key!r} is missing")
        return default
    value = record[key]
    valid = isinstance(value, kind) and not isinstance(value, bool)
    if valid and kind is list:
        valid = all(isinstance(item, str) for item in value)
    if not valid and not (key == "tail" and value == "zero"):
        either = '"zero" or ' if key == "tail" else ""
        raise ValueError(f"manifest field {key!r} must be {either}{_KINDS[kind]}")
    return value


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

    A tail of None, "zero", or only zeros is stored as the block (0,): the
    support is finite and the shift map is a polynomial automorphism.  An
    entry from the tower of another prime raises DomainMismatchError.
    """

    __slots__ = ("prime",)

    def __init__(self, prime: int, prefix=(), tail=None):
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        self.prime = prime
        block = () if tail is None or tail == "zero" else tuple(as_cycnum(c) for c in tail)
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

    def to_manifest(self) -> dict:
        return {"prime": self.prime, "prefix": [str(c) for c in self.prefix],
                "tail": [str(c) for c in self.tail]}

    @classmethod
    def from_manifest(cls, record: dict) -> "CoeffSequence":
        """Read a to_manifest record; a malformed field raises ValueError
        naming it."""
        prime = manifest_field(record, "prime", int)
        prefix = [parse_scalar(s) for s in manifest_field(record, "prefix", list, [])]
        tail = manifest_field(record, "tail", list, "zero")
        if tail != "zero":
            tail = [parse_scalar(s) for s in tail]
        return cls(prime, prefix, tail)


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


def embedding_check(s: CoeffSequence, alpha: RootOfUnity, beta: RootOfUnity) -> bool:
    """Homomorphism and order preservation of alpha -> shift-conjugate of diag(alpha)."""
    product = conj_closed_form(s, alpha * beta)
    composed = compose(conj_closed_form(s, alpha), conj_closed_form(s, beta))
    if product != composed:
        return False
    return endo_order(conj_closed_form(s, alpha), alpha.order) == alpha.order

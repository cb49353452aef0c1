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

from .cyclotomic import CycNum, RootOfUnity, as_cycnum, is_prime
from .poly import SparsePoly
from .endo import PlaneEndo, TriangularAffine, compose, conjugate, endo_order


_KINDS = {int: "an integer", str: "a string", dict: "an object",
          list: "a list of strings"}
_REQUIRED = object()


def manifest_field(record: dict, key: str, kind: type, default=_REQUIRED):
    """record[key] (or the default, if given, when it is absent) checked to be
    a JSON value of the kind; a bad field raises ValueError naming it."""
    if default is not _REQUIRED and key not in record:
        return default
    value = record[key]
    valid = isinstance(value, kind) and not isinstance(value, bool)
    if valid and kind is list:
        valid = all(isinstance(item, str) for item in value)
    if not valid and not (key == "tail" and value == "zero"):
        either = '"zero" or ' if key == "tail" else ""
        raise ValueError(f"manifest field {key!r} must be {either}{_KINDS[kind]}")
    return value


class CoeffSequence:
    """Coefficient sequence {a_k}: finite prefix plus eventually-periodic tail.

    tail is None for the all-zero tail (finite support; the shift map is then
    a polynomial automorphism) or a nonempty repeating block.
    """

    __slots__ = ("prime", "prefix", "tail")

    def __init__(self, prime: int, prefix=(), tail=None):
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        self.prime = prime
        self.prefix = tuple(as_cycnum(c) for c in prefix)
        if tail is None or tail == "zero":
            self.tail = None
        else:
            block = tuple(as_cycnum(c) for c in tail)
            self.tail = block if any(not c.is_zero for c in block) else None

    def coeff(self, k: int) -> CycNum:
        if k < 0:
            raise IndexError("sequence indices start at 0")
        if k < len(self.prefix):
            return self.prefix[k]
        if self.tail is None:
            return CycNum.zero()
        return self.tail[(k - len(self.prefix)) % len(self.tail)]

    @property
    def period(self) -> int:
        return 1 if self.tail is None else len(self.tail)

    @property
    def has_finite_support(self) -> bool:
        return self.tail is None

    def joint_region(self, other: "CoeffSequence", k0: int = 0) -> tuple[int, int]:
        """(start, period) from which both sequences are jointly periodic."""
        start = max(k0, len(self.prefix), len(other.prefix))
        return start, lcm(self.period, other.period)

    def to_manifest(self) -> dict:
        return {
            "prime": self.prime,
            "prefix": [str(c) for c in self.prefix],
            "tail": "zero" if self.tail is None else [str(c) for c in self.tail],
        }

    @classmethod
    def from_manifest(cls, record: dict) -> "CoeffSequence":
        """Read a to_manifest record; a malformed field raises ValueError
        naming it."""
        from .parsing import parse_scalar
        prime = manifest_field(record, "prime", int)
        prefix = [parse_scalar(s) for s in manifest_field(record, "prefix", list, [])]
        tail = manifest_field(record, "tail", list, "zero")
        if tail != "zero":
            tail = [parse_scalar(s) for s in tail]
        return cls(prime, prefix, tail)

    def __eq__(self, other):
        if not isinstance(other, CoeffSequence):
            return NotImplemented
        return (self.prime, self.prefix, self.tail) == (other.prime, other.prefix, other.tail)

    __hash__ = None

    def __repr__(self):
        tail = "zero" if self.tail is None else [str(c) for c in self.tail]
        return (f"CoeffSequence(p={self.prime}, "
                f"prefix={[str(c) for c in self.prefix]}, tail={tail})")


def exponent_of(p: int, k: int) -> int:
    """The x2-exponent of the k-th shift term."""
    return p ** k + 1


def diag(alpha: RootOfUnity) -> PlaneEndo:
    """The diagonal automorphism (alpha*x1, alpha*x2)."""
    a = alpha.to_field()
    return PlaneEndo.diagonal(a, a)


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


def verify_formula(s: CoeffSequence, alpha: RootOfUnity, extra_levels: int = 2) -> bool:
    """Check the closed form against brute-force conjugation.

    Conjugates diag(alpha) by every truncation N = level(alpha), ...,
    level(alpha) + extra_levels; all must agree exactly with the closed form.
    """
    expected = conj_closed_form(s, alpha)
    n = alpha.level
    for trunc in range(n, n + extra_levels + 1):
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

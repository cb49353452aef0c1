"""Degree-bounded linearization of shift-conjugated diagonal automorphisms.

Targets have the shape (alpha*x1 + S(x2), alpha*x2) with alpha a root of
unity.  The solver looks for a triangular-affine conjugator theta with
theta^-1 * target * theta diagonal, normalized to theta = (x1 + g(x2), x2):
matching the coefficient of x2^d in target*theta = theta*h gives

    g_d * (alpha^d - alpha) = S_d,

solvable exactly unless d resonates (alpha^d = alpha, S_d != 0: endo.resonance,
order's rule too).  The solve makes no inverse: write alpha = sign * zeta^r and
let w = alpha^(d-1) != 1 have order m; then sum_{i<m} i w^i = m/(w - 1), so

    1/(alpha^d - alpha) = alpha^-1 * (1/m) * sum_{i<m} i w^i,

one sum of (exponent, numerator) pairs over the denominator m, reduced once,
in a field of degree phi(m) at most MAX_INVERSE_DEGREE, as for a dense
inverse.  The orientation of that formula is pinned by the composition check
run on every solution, target*theta = theta*h, which makes no inverse either.

On the shift-conjugate of diag(alpha) the solve gives g_d = -a_k at each
d = p^k+1 with k < level(alpha) and a_k != 0, so minimal_linearizer_degree
reads its answer off the sequence and builds no target.
"""

from __future__ import annotations

from math import gcd

from .cyclotomic import (MAX_INVERSE_DEGREE, CycNum, RootOfUnity,
                         multiplicative_order)
from .poly import SparsePoly
# conjugate and conj_closed_form are unused here, but perfbench/tracing.py
# wraps them under these names
from .endo import PlaneEndo, TriangularAffine, conjugate, resonance  # noqa: F401
from .prufer import CoeffSequence, conj_closed_form, exponent_of  # noqa: F401


class ShapeError(ValueError):
    """The target is not of the solvable shape."""


class LinearizationResult:
    """Either a verified conjugator with its diagonal image, or an obstruction.

    obstruction_degree is the least resonant degree (endo.resonance), if any,
    else deg S when it exceeds the bound (the witness of degree growth:
    raising the bound to it would succeed).
    """

    __slots__ = ("theta", "h", "obstruction_degree")

    def __init__(self, theta=None, h=None, obstruction_degree=None):
        self.theta = theta
        self.h = h
        self.obstruction_degree = obstruction_degree

    @property
    def found(self) -> bool:
        return self.theta is not None

    def __repr__(self):
        if self.found:
            return f"LinearizationResult(theta={self.theta})"
        return f"LinearizationResult(obstruction_degree={self.obstruction_degree})"


def _inverse_gap(alpha: CycNum, order: int, d: int) -> CycNum:
    """1/(alpha^d - alpha), alpha^(d-1) != 1, in the sum_{i<m} i w^i form
    above.  With alpha = sign * zeta_{p^n}^r (CycNum._scaled_root; a rational
    alpha is +-1 at n = 0), the i-th term is sign^t * zeta^(r*t), t = i*(d-1)
    - 1, read modulo 2 and p^n, so d = 0 forms no negative power.  w lies in
    Q(zeta_q), q = gcd(m, p^n) the p-part of m, of degree phi(q)."""
    sign, r = alpha._scaled_root()
    p, n = alpha.prime or 2, alpha.level
    m = order // gcd(order, d - 1)
    if (phi := (q := gcd(m, p ** n)) - q // p) > MAX_INVERSE_DEGREE:
        raise ValueError(f"inverse of alpha^{d} - alpha in a field of degree {phi}, "
                         f"over the budget of {MAX_INVERSE_DEGREE}")
    return CycNum._from_exponent_map(p, n, [
        (r * (t := i * (d - 1) - 1), -i if sign < 0 and t % 2 else i)
        for i in range(1, m)], m)


def solve_linearization(target: PlaneEndo, degree_bound: int) -> LinearizationResult:
    """Find theta = (x1 + g(x2), x2) with deg g <= degree_bound diagonalizing
    the target (alpha*x1 + S(x2), alpha*x2)."""
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    try:
        t = TriangularAffine(target.f1, target.f2)
    except ValueError:
        t = None
    if t is None or t.gamma != t.beta or t.beta0:
        raise ShapeError("the target must have the shape (alpha*x1 + S(x2), alpha*x2)")
    if (order := multiplicative_order(t.beta)) is None:
        raise ShapeError("the x2 scaling must be a root of unity")
    if (d := resonance(t, order)) is not None or (d := t.g.degree) > degree_bound:
        return LinearizationResult(obstruction_degree=d)
    g = SparsePoly({(0, d): s_d * _inverse_gap(t.beta, order, d)
                    for d, s_d in t.g.x2_profile().items()})
    theta = TriangularAffine.shift(g)
    h = TriangularAffine.scaling(t.beta, t.beta)
    if target * theta != theta * h:
        raise AssertionError("per-monomial solve failed its composition check")
    return LinearizationResult(theta=theta, h=h)


def minimal_linearizer_degree(s: CoeffSequence, alpha: RootOfUnity,
                              max_bound: int) -> int | None:
    """Smallest bound <= max_bound at which the shift-conjugate linearizes.

    The conjugator needs x2^(p^k+1) exactly for the k < level(alpha) with
    a_k != 0, so the answer is p^k*+1 for the last such k*, or 1 if there
    is none; None if that exceeds max_bound.
    """
    if alpha.prime != s.prime:
        raise ValueError(f"root lives over p={alpha.prime}, sequence over p={s.prime}")
    degree = next((exponent_of(s.prime, k) for k in reversed(range(alpha.level))
                   if not s.coeff(k).is_zero), 1)
    return degree if degree <= max_bound else None

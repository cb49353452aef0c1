"""Degree-bounded linearization of shift-conjugated diagonal automorphisms.

Targets have the shape (alpha*x1 + S(x2), alpha*x2) with alpha a root of
unity.  The solver looks for a triangular-affine conjugator theta with
theta^-1 * target * theta diagonal, normalized to theta = (x1 + g(x2), x2):
matching the coefficient of x2^d in target*theta = theta*h gives

    g_d * (alpha^d - alpha) = S_d,

solvable exactly unless alpha^(d-1) = 1 while S_d != 0.  The orientation of
that formula is pinned by the composition check run on every solution.

On the shift-conjugate of diag(alpha) the solve gives g_d = -a_k at each
d = p^k+1 with k < level(alpha) and a_k != 0, so minimal_linearizer_degree
reads its answer off the sequence and builds no target.
"""

from __future__ import annotations

from .cyclotomic import CycNum, RootOfUnity, multiplicative_order
from .poly import SparsePoly
from .endo import PlaneEndo, TriangularAffine, conjugate, is_diagonal
# conj_closed_form is unused here, but perfbench/tracing.py wraps it under this name
from .prufer import CoeffSequence, conj_closed_form, exponent_of  # noqa: F401


class ShapeError(ValueError):
    """The target is not of the solvable shape."""


class LinearizationResult:
    """Either a verified conjugator with its diagonal image, or an obstruction.

    obstruction_degree reports the smallest degree whose coefficient equation
    has no solution at all when one exists, and otherwise the largest degree
    the conjugator is forced to contain beyond the bound (the witness of
    degree growth: raising the bound to it would succeed).
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


def _target_shape(target: PlaneEndo) -> tuple[CycNum, dict[int, CycNum]]:
    """Extract (alpha, S) from a target (alpha*x1 + S(x2), alpha*x2)."""
    f2 = target.f2
    alpha = f2.coefficient(0, 1)
    if alpha.is_zero or len(f2) != 1:
        raise ShapeError("x2 must map to a nonzero scalar multiple of itself")
    if multiplicative_order(alpha) is None:
        raise ShapeError("the x2 scaling must be a root of unity")
    shift = target.f1 - SparsePoly.x1() * alpha
    if shift.involves_x1():
        raise ShapeError("x1 must map to alpha*x1 plus a polynomial in x2")
    return alpha, shift.x2_profile()


def solve_linearization(target: PlaneEndo, degree_bound: int) -> LinearizationResult:
    """Find theta = (x1 + g(x2), x2) with deg g <= degree_bound diagonalizing
    the target."""
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    alpha, profile = _target_shape(target)
    unsolvable: list[int] = []
    forced_beyond: list[int] = []
    g = SparsePoly.zero()
    for d in sorted(profile):
        s_d = profile[d]
        if alpha ** (d - 1) == 1:
            if not s_d.is_zero:
                unsolvable.append(d)
            continue
        g_d = s_d / (alpha ** d - alpha)
        if g_d.is_zero:
            continue
        if d > degree_bound:
            forced_beyond.append(d)
        else:
            g = g + SparsePoly.monomial(0, d, g_d)
    if unsolvable:
        return LinearizationResult(obstruction_degree=min(unsolvable))
    if forced_beyond:
        return LinearizationResult(obstruction_degree=max(forced_beyond))
    theta = TriangularAffine.shift(g)
    h = TriangularAffine.scaling(alpha, alpha)
    check = conjugate(target, theta)
    if check != h or not is_diagonal(check):
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

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
from .endo import PlaneEndo, TriangularAffine, conjugate
# conj_closed_form is unused here, but perfbench/tracing.py wraps it under this name
from .prufer import CoeffSequence, conj_closed_form, exponent_of  # noqa: F401


class ShapeError(ValueError):
    """The target is not of the solvable shape."""


class LinearizationResult:
    """Either a verified conjugator with its diagonal image, or an obstruction.

    obstruction_degree is read off the degrees of S, whose coefficients are
    all nonzero: the least d with alpha^(d-1) = 1, whose equation has no
    solution, if there is one, and otherwise deg S when it exceeds the bound
    (the witness of degree growth: raising the bound to it would succeed).
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


def _target_shape(target: PlaneEndo) -> tuple[CycNum, int, dict[int, CycNum]]:
    """(alpha, its multiplicative order, S) of (alpha*x1 + S(x2), alpha*x2)."""
    try:
        t = TriangularAffine(target.f1, target.f2)
    except ValueError:
        t = None
    if t is None or t.gamma != t.beta or t.beta0:
        raise ShapeError("the target must have the shape (alpha*x1 + S(x2), alpha*x2)")
    if (order := multiplicative_order(t.beta)) is None:
        raise ShapeError("the x2 scaling must be a root of unity")
    return t.beta, order, t.g.x2_profile()


def solve_linearization(target: PlaneEndo, degree_bound: int) -> LinearizationResult:
    """Find theta = (x1 + g(x2), x2) with deg g <= degree_bound diagonalizing
    the target."""
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    alpha, order, profile = _target_shape(target)
    resonant = [d for d in profile if (d - 1) % order == 0]
    if resonant:
        return LinearizationResult(obstruction_degree=min(resonant))
    if max(profile, default=0) > degree_bound:
        return LinearizationResult(obstruction_degree=max(profile))
    g = SparsePoly({(0, d): s_d / (alpha ** d - alpha) for d, s_d in profile.items()})
    theta = TriangularAffine.shift(g)
    h = TriangularAffine.scaling(alpha, alpha)
    check = conjugate(target, theta)
    if check != h:
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

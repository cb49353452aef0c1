"""Endomorphisms of the plane polynomial algebra as pairs of polynomials.

Convention: maps act left to right, so the product phi*psi applies phi
first.  Componentwise, compose(phi, psi).f_i = phi.f_i evaluated at
(psi.f1, psi.f2).  Every formula in this package is written in that
orientation.
"""

from __future__ import annotations

from .cyclotomic import as_cycnum
from .poly import SparsePoly


class PlaneEndo:
    """An endomorphism (x1 -> f1, x2 -> f2)."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: SparsePoly, f2: SparsePoly):
        self.f1 = f1
        self.f2 = f2

    @classmethod
    def identity(cls) -> "PlaneEndo":
        return cls(SparsePoly.x1(), SparsePoly.x2())

    def __mul__(self, other):
        if not isinstance(other, PlaneEndo):
            return NotImplemented
        return compose(self, other)

    def __eq__(self, other):
        if not isinstance(other, PlaneEndo):
            return NotImplemented
        return self.f1 == other.f1 and self.f2 == other.f2

    __hash__ = None

    @property
    def is_identity(self) -> bool:
        return self == PlaneEndo.identity()

    def __str__(self):
        return f"({self.f1}, {self.f2})"

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"


def compose(phi: PlaneEndo, psi: PlaneEndo) -> PlaneEndo:
    """The product phi*psi in left-to-right orientation (phi acts first)."""
    return PlaneEndo(phi.f1.substitute(psi.f1, psi.f2),
                     phi.f2.substitute(psi.f1, psi.f2))


class TriangularAffine(PlaneEndo):
    """The automorphism (gamma*x1 + g(x2), beta*x2 + beta0), gamma, beta != 0.

    Closed under inversion, which is the only inversion this package needs:
    every conjugator in the constructions here is of this shape.
    """

    __slots__ = ("gamma", "g", "beta", "beta0")

    def __init__(self, gamma, g: SparsePoly, beta, beta0=0):
        self.gamma = as_cycnum(gamma)
        self.beta = as_cycnum(beta)
        self.beta0 = as_cycnum(beta0)
        if self.gamma.is_zero or self.beta.is_zero:
            raise ValueError("triangular-affine maps need gamma != 0 and beta != 0")
        if g.involves_x1():
            raise ValueError("the shift part must be a polynomial in x2 alone")
        self.g = g
        super().__init__(SparsePoly.x1() * self.gamma + g,
                         SparsePoly.x2() * self.beta + SparsePoly.constant(self.beta0))

    @classmethod
    def identity(cls) -> "TriangularAffine":
        return cls(1, SparsePoly.zero(), 1)

    @classmethod
    def shift(cls, g: SparsePoly) -> "TriangularAffine":
        """(x1 + g(x2), x2)."""
        return cls(1, g, 1)

    @classmethod
    def scaling(cls, gamma, beta) -> "TriangularAffine":
        return cls(gamma, SparsePoly.zero(), beta)

    def inverse(self) -> "TriangularAffine":
        """Closed-form inverse: x2 -> (x2 - beta0)/beta, x1 -> (x1 - g(...))/gamma."""
        binv = self.beta.inverse()
        ginv = self.gamma.inverse()
        y = (SparsePoly.x2() - SparsePoly.constant(self.beta0)) * binv
        return TriangularAffine(ginv, -(self.g.substitute(SparsePoly.x1(), y)) * ginv,
                                binv, -(self.beta0 * binv))


def as_triangular_affine(psi: PlaneEndo) -> TriangularAffine | None:
    """Recognize an endomorphism as triangular-affine, or return None."""
    f2 = psi.f2
    if f2.involves_x1():
        return None
    beta = f2.coefficient(0, 1)
    beta0 = f2.coefficient(0, 0)
    if beta.is_zero or len(f2) > (2 if beta0 else 1):
        return None
    gamma = psi.f1.coefficient(1, 0)
    if gamma.is_zero:
        return None
    g = psi.f1 - SparsePoly.x1() * gamma
    if g.involves_x1():
        return None
    return TriangularAffine(gamma, g, beta, beta0)


def conjugate(psi: PlaneEndo, theta: TriangularAffine) -> PlaneEndo:
    """theta^-1 * psi * theta in the left-to-right orientation."""
    return compose(compose(theta.inverse(), psi), theta)


def endo_order(psi: PlaneEndo, max_order: int) -> int | None:
    """Smallest k <= max_order with psi^k the identity, else None."""
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    ident = PlaneEndo.identity()
    power = psi
    for k in range(1, max_order + 1):
        if power == ident:
            return k
        power = compose(power, psi)
    return None


def is_linear(psi: PlaneEndo) -> bool:
    """Both components homogeneous of degree one."""
    for f in (psi.f1, psi.f2):
        if f.is_zero:
            return False
        if any(e1 + e2 != 1 for (e1, e2), _ in f.terms()):
            return False
    return True


def is_diagonal(psi: PlaneEndo) -> bool:
    """x1 -> a1*x1 and x2 -> a2*x2 with nonzero scalars."""
    return (len(psi.f1) == 1 and len(psi.f2) == 1
            and not psi.f1.coefficient(1, 0).is_zero
            and not psi.f2.coefficient(0, 1).is_zero)

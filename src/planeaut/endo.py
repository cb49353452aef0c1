"""Endomorphisms of the plane polynomial algebra as pairs of polynomials.

Convention: maps act left to right, so the product phi*psi applies phi
first.  Componentwise, compose(phi, psi).f_i = phi.f_i evaluated at
(psi.f1, psi.f2).  Every formula in this package is written in that
orientation.
"""

from __future__ import annotations

from itertools import chain
from math import comb, lcm

from .cyclotomic import CycNum, multiplicative_order
from .poly import SparsePoly, _raw


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

    Built from its two polynomials: the constructor checks the shape, keeps
    f1 and f2 as given and reads gamma, g, beta and beta0 off their terms,
    with no arithmetic (g is every term of f1 but the x1 term); any other
    map raises ValueError.  Closed under inversion, which is the
    only inversion this package needs: every conjugator in the
    constructions here is of this shape.
    """

    __slots__ = ("gamma", "g", "beta", "beta0")

    def __init__(self, f1: SparsePoly, f2: SparsePoly):
        gamma = f1.coefficient(1, 0)
        g = _raw({mono: c for mono, c in f1.terms() if mono != (1, 0)})
        beta = f2.coefficient(0, 1)
        beta0 = f2.coefficient(0, 0)
        if (gamma.is_zero or beta.is_zero or g.involves_x1()
                or len(f2) != (2 if beta0 else 1)):
            raise ValueError("not triangular-affine: need (gamma*x1 + g(x2), "
                             "beta*x2 + beta0) with gamma, beta != 0")
        super().__init__(f1, f2)
        self.gamma, self.g, self.beta, self.beta0 = gamma, g, beta, beta0

    @classmethod
    def shift(cls, g: SparsePoly) -> "TriangularAffine":
        """(x1 + g(x2), x2)."""
        return cls(SparsePoly.x1() + g, SparsePoly.x2())

    @classmethod
    def scaling(cls, gamma, beta) -> "TriangularAffine":
        return cls(SparsePoly.monomial(1, 0, gamma), SparsePoly.monomial(0, 1, beta))

    def inverse(self) -> "TriangularAffine":
        """Closed-form inverse: x2 -> (x2 - beta0)/beta, x1 -> (x1 - g(...))/gamma."""
        x1 = SparsePoly.x1()
        y = (SparsePoly.x2() - self.beta0) * self.beta.inverse()
        return TriangularAffine((x1 - self.g.substitute(x1, y)) * self.gamma.inverse(), y)


def conjugate(psi: PlaneEndo, theta: TriangularAffine) -> PlaneEndo:
    """theta^-1 * psi * theta in the left-to-right orientation."""
    return compose(compose(theta.inverse(), psi), theta)


def endo_order(psi: PlaneEndo, max_order: int) -> int | None:
    """Smallest k <= max_order with psi^k the identity, else None.

    A triangular-affine psi = (gamma*x1 + g(x2), beta*x2 + beta0) is decided
    from its scalars alone.  Every such k is a multiple of m = lcm(ord gamma,
    ord beta), and psi^m = (x1 + H(x2), x2 + c) has infinite order in
    characteristic 0 unless it is the identity: c = m*beta0 where beta = 1,
    else 0, and H = 0 exactly when no degree resonates (see resonance).

    An affine psi = (A x + b) of finite order k has k = ord A, since psi^k
    is a translation, of infinite order unless zero; A's eigenvalues are
    roots of unity in a quadratic extension of the coefficients' field
    Q(zeta_{p^n}), so k divides W = lcm(12, 4*p^(n+1)) (W = 12 over Q), and
    k is the least divisor d of W with psi^d the identity, each power formed
    from the squares psi^(2^i).  Scalars of two towers take both primes
    into W, and raise DomainMismatchError where a power meets them, as the
    composition loop's first power psi*psi does.

    Any other map is composed with itself up to max_order times, returning
    None at the first power whose degree (the larger of its components'
    total degrees) exceeds psi's.  A map of finite order is an automorphism;
    a finite group acting on the Bass-Serre tree of Aut = affine *_B
    triangular (Jung 1942; van der Kulk 1953) fixes a vertex (Serre,
    *Trees*), so psi = w^-1 * L * w, L affine, and no w^-1 * L^k * w
    outgrows psi.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    try:
        t = TriangularAffine(psi.f1, psi.f2)
    except ValueError:
        bound = max(psi.f1.degree, psi.f2.degree)
        if bound <= 1:
            return _affine_order(psi, max_order)
        ident, power = PlaneEndo.identity(), psi
        for k in range(1, max_order + 1):
            if power == ident:
                return k
            if max(power.f1.degree, power.f2.degree) > bound:
                return None
            power = compose(power, psi)
        return None
    orders = multiplicative_order(t.gamma), multiplicative_order(t.beta)
    if None in orders or (m := lcm(*orders)) > max_order or t.beta == 1 and t.beta0:
        return None
    return m if resonance(t, orders[1]) is None else None


def resonance(t: TriangularAffine, step: int) -> int | None:
    """The least resonant degree of t = (gamma*x1 + g(x2), beta*x2 + beta0),
    beta of order step and beta0 = 0 where beta = 1, else None.

    Put c = beta0/(1 - beta) (0 where beta0 = 0) and h(y) = g(y + c); d resonates
    where beta^d = gamma and h_d != 0.  For m = lcm(ord gamma, step), t^m is
    (x1 + m*gamma^(m-1) * sum h_d (x2 - c)^d, x2) over the d with beta^d = gamma,
    as every other sum_{i<m} (beta^d/gamma)^i vanishes (endo_order); and
    (x1 + v(x2), x2 + c) conjugates t to (gamma*x1, beta*x2) exactly when
    v_d (beta^d - gamma) = h_d (linearize).  Those d are one residue class
    modulo step, or none, sought among d < step.  With beta0 = 0, h = g, and
    past len(g) values of d the class is sought on g's degrees alone: at most
    2*len(g) powers however sparse g is.  Otherwise (1 - beta)^D * h_d =
    sum_{e>=d} C(e,d) g_e beta0^(e-d) (1 - beta)^(D-e+d), D = deg g: no
    inverse, no power above D, and a two-tower error only where that sum
    multiplies or adds scalars of two towers.
    """
    gamma, g, beta, beta0 = t.gamma, t.g.x2_profile(), t.beta, t.beta0
    top = max(g, default=0)
    scan = min(top + 1, step, len(g) if beta0.is_zero else step)
    first = next((d for d in chain(range(scan), (e for e in g if e >= scan))
                  if beta ** d == gamma), None)
    if first is None:
        return None
    if beta0.is_zero:  # h = g
        return min((d for d in g if (d - first) % step == 0), default=None)
    u = 1 - beta
    return next((d for d in range(first, top + 1, step)
                 if CycNum.sum([comb(e, d) * c * beta0 ** (e - d) * u ** (top - e + d)
                                for e, c in g.items() if e >= d])), None)


def _affine_order(psi: PlaneEndo, max_order: int) -> int | None:
    """The least divisor d <= max_order of W with psi^d the identity, for an
    affine psi (see endo_order), else None."""
    levels: dict[int, int] = {}
    for _, c in (*psi.f1.terms(), *psi.f2.terms()):
        if c.level:
            levels[c.prime] = max(levels.get(c.prime, 0), c.level)
    w = lcm(12, *(4 * p ** (n + 1) for p, n in levels.items()))
    divisors = [1]
    for q in {2, 3, *levels}:
        e = 0
        while w % q ** (e + 1) == 0:
            e += 1
        divisors = [d * q ** i for d in divisors for i in range(e + 1)]
    ident, squares = PlaneEndo.identity(), [psi]   # squares[i] = psi^(2^i)
    for d in sorted(divisors):
        if d > max_order:
            break
        power = None
        for i in range(d.bit_length()):
            if i == len(squares):
                squares.append(compose(squares[-1], squares[-1]))
            if d >> i & 1:
                power = squares[i] if power is None else compose(power, squares[i])
        if power == ident:
            return d
    return None

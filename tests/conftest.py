"""Shared randomized-value generators (seeded, deterministic)."""

from fractions import Fraction

from planeaut import CoeffSequence, CycNum, RootOfUnity, SparsePoly
from planeaut.cyclotomic import phi_prime_power

COEFF_POOL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
              Fraction(-2), Fraction(1, 2), Fraction(-3, 2), Fraction(3)]

NONZERO_POOL = [c for c in COEFF_POOL if c]


def from_vector(p, level, coeffs) -> CycNum:
    """sum(c * zeta_{p^level}^e for e, c in enumerate(coeffs)), built with the
    field's own arithmetic."""
    return sum((CycNum.rational(c) * CycNum.zeta(p, level, e)
                for e, c in enumerate(coeffs)), CycNum.zero())


def to_vector(u, p, level) -> list[Fraction]:
    """The coefficients of u on the power basis of Q(zeta_{p^level}), read off
    u.terms and u.den: zeta_{p^m}^e is zeta_{p^level}^(e * p^(level - m))."""
    assert u.prime in (None, p) and u.level <= level
    out = [Fraction(0)] * phi_prime_power(p, level)
    for e, c in u.terms:
        out[e * p ** (level - u.level)] = Fraction(c, u.den)
    return out


def random_cycnum(rng, p, max_level=3, max_terms=3, nonzero=False) -> CycNum:
    """A sparse random element of the p-tower, at most max_terms basis terms."""
    while True:
        level = rng.randint(0, max_level)
        phi = phi_prime_power(p, level)
        coeffs = [Fraction(0)] * phi
        for _ in range(rng.randint(1, max_terms)):
            coeffs[rng.randrange(phi)] = rng.choice(COEFF_POOL)
        value = from_vector(p, level, coeffs)
        if not nonzero or not value.is_zero:
            return value


def random_root(rng, p, max_level=3) -> RootOfUnity:
    level = rng.randint(0, max_level)
    return RootOfUnity(p, level, rng.randrange(p ** level) if level else 0)


def random_poly(rng, p=2, max_terms=8, max_degree=12, max_level=2) -> SparsePoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e1 = rng.randint(0, max_degree)
        e2 = rng.randint(0, max_degree - e1)
        terms[(e1, e2)] = random_cycnum(rng, p, max_level=max_level, max_terms=2)
    return SparsePoly(terms)


def random_prefix(rng, length, nonzero=False):
    pool = NONZERO_POOL if nonzero else COEFF_POOL
    return [rng.choice(pool) for _ in range(length)]


def random_sequence(rng, p, max_prefix=4, allow_tail=True) -> CoeffSequence:
    prefix = random_prefix(rng, rng.randint(0, max_prefix))
    tail = None
    if allow_tail and rng.random() < 0.5:
        tail = [rng.choice(COEFF_POOL) for _ in range(rng.randint(1, 3))]
    return CoeffSequence(p, prefix, tail)


def count_inverses(monkeypatch) -> list[int]:
    """Patch CycNum.inverse to count its calls, which also counts the
    inverses behind '/' and negative powers; returns the one-item counter."""
    calls = [0]
    inverse = CycNum.inverse

    def counting(self):
        calls[0] += 1
        return inverse(self)

    monkeypatch.setattr(CycNum, "inverse", counting)
    return calls

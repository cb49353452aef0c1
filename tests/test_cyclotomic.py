"""Exact cyclotomic field arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from planeaut import (CycNum, DomainMismatchError, RootOfUnity,
                      as_root_of_unity, multiplicative_order)
from planeaut.cyclotomic import (phi_prime_power, prime_power_decompose,
                                 root_of_unity_splits)

from conftest import NONZERO_POOL, random_cycnum, random_root


def zeta(p, n, e=1):
    return CycNum.zeta(p, n, e)


class TestAddition:
    def test_imaginary_parts_cancel(self):
        z4 = zeta(2, 2)
        assert (1 + z4) + (1 - z4) == 2

    def test_zero_is_identity(self):
        u = 1 + zeta(2, 3) * 3
        assert u + CycNum.zero() == u

    def test_sum_of_eighth_roots_squares_to_minus_two(self):
        # oracle: the multiplication routine itself
        u = zeta(2, 3) + zeta(2, 3, 3)
        assert u * u == -2

    def test_mixed_levels(self):
        assert zeta(2, 1) + zeta(2, 2) ** 2 == -2  # zeta_2 + zeta_4^2 = -1 - 1


class TestMultiplication:
    def test_conjugate_product(self):
        z4 = zeta(2, 2)
        assert (1 + z4) * (1 - z4) == 2

    def test_eighth_root_powers(self):
        z8 = zeta(2, 3)
        fourth = z8 * z8 * z8 * z8
        assert fourth == -1

    def test_order_three_root(self):
        z3 = zeta(3, 1)
        assert z3 * zeta(3, 1, 2) == 1

    def test_mixed_primes_rejected(self):
        with pytest.raises(DomainMismatchError):
            zeta(2, 2) * zeta(3, 1)
        with pytest.raises(DomainMismatchError):
            zeta(2, 2) + zeta(5, 1)

    def test_rational_mixes_with_any_prime(self):
        assert CycNum.rational(3) * zeta(5, 1) == zeta(5, 1) * 3


class TestInverse:
    def test_rational(self):
        assert CycNum.rational(2).inverse() == Fraction(1, 2)

    def test_root_inverts_to_conjugate_power(self):
        z4 = zeta(2, 2)
        assert z4.inverse() == zeta(2, 2, 3)
        assert z4.inverse() == -z4
        for p, level in ((2, 3), (3, 2), (5, 1)):
            for j in range(p ** level):
                assert zeta(p, level, j).inverse() == zeta(p, level, -j)

    def test_one_plus_i(self):
        u = 1 + zeta(2, 2)
        v = u.inverse()
        assert u * v == 1                      # oracle: product check
        assert v == (1 - zeta(2, 2)) / 2       # frozen closed form

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            CycNum.zero().inverse()

    @pytest.mark.parametrize("p,level", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1),
                                         (2, 6), (3, 3), (5, 2), (7, 2), (11, 1)])
    def test_random_inverses(self, p, level):
        rng = random.Random(101 + p + level)
        for _ in range(25):
            u = random_cycnum(rng, p, max_level=level, nonzero=True)
            assert u * u.inverse() == 1

    @pytest.mark.parametrize("p,level", [(2, 6), (5, 3), (7, 2)])
    def test_dense_inverses(self, p, level):
        # every coefficient nonzero; the inverse is unique, so the product
        # check is a complete oracle
        rng = random.Random(211 + p + level)
        for _ in range(2):
            u = CycNum.from_coeffs(p, level, [
                rng.choice(NONZERO_POOL)
                for _ in range(phi_prime_power(p, level))])
            assert len(u.terms) == phi_prime_power(p, level)
            assert u * u.inverse() == 1

    @pytest.mark.parametrize("p,level", [(2, 40), (3, 25)])
    def test_high_level_root(self, p, level):
        # one term at any level; a dense vector would need phi(p^level) slots
        u = zeta(p, level)
        assert len(u.terms) == 1
        assert u * u.inverse() == 1
        assert u ** (p ** level) == 1
        assert u ** (p ** (level - 1)) != 1


def is_canonical(w):
    """Sorted exponents below phi(p^level), nonzero coefficients, and the
    minimal level: at level >= 1 some exponent is prime to p.  Together
    these leave zero only one form, no terms at level 0."""
    exps = [e for e, _ in w.terms]
    return (isinstance(w.terms, tuple)
            and exps == sorted(set(exps))
            and all(0 <= e < phi_prime_power(w.prime, w.level) for e in exps)
            and all(c for _, c in w.terms)
            and (w.level == 0 or any(e % w.prime for e in exps)))


class TestLevelRaise:
    def test_embedding_vector(self):
        # zeta_3 -> zeta_9^3: index dilation by p
        lifted = zeta(3, 1).coeffs_at_level(2)
        expect = [Fraction(0)] * phi_prime_power(3, 2)
        expect[3] = Fraction(1)
        assert list(lifted) == expect

    def test_lowering_rejected(self):
        with pytest.raises(ValueError):
            zeta(2, 3).coeffs_at_level(1)

    def test_ring_homomorphism(self):
        rng = random.Random(7)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            u = random_cycnum(rng, p, max_level=2)
            v = random_cycnum(rng, p, max_level=2)
            n = 3
            for op in (lambda a, b: a + b, lambda a, b: a * b):
                assert is_canonical(op(u, v))
                combined = op(u, v).coeffs_at_level(n, prime=p)
                lifted = op(CycNum.from_coeffs(p, n, u.coeffs_at_level(n, prime=p)),
                            CycNum.from_coeffs(p, n, v.coeffs_at_level(n, prime=p)))
                assert list(combined) == list(lifted.coeffs_at_level(n, prime=p))


class TestRootOfUnity:
    def test_to_field_examples(self):
        assert RootOfUnity(2, 1, 1).to_field() == -1
        assert RootOfUnity(2, 2, 1).to_field() == zeta(2, 2)
        assert RootOfUnity(3, 0, 0).to_field() == 1

    def test_root_mul_examples(self):
        z2 = RootOfUnity(2, 1, 1)
        assert (z2 * z2).is_identity
        assert RootOfUnity(2, 2, 1) * z2 == RootOfUnity(2, 2, 3)
        assert RootOfUnity(3, 2, 1) * RootOfUnity(3, 1, 1) == RootOfUnity(3, 2, 4)

    def test_normalization(self):
        assert RootOfUnity(2, 3, 4) == RootOfUnity(2, 1, 1)  # zeta_8^4 = zeta_2
        assert RootOfUnity(5, 2, 25).is_identity

    def test_mixed_primes_rejected(self):
        with pytest.raises(DomainMismatchError):
            RootOfUnity(2, 1, 1) * RootOfUnity(3, 1, 1)

    def test_group_homomorphism_to_field(self):
        rng = random.Random(23)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            a, b = random_root(rng, p), random_root(rng, p)
            assert (a * b).to_field() == a.to_field() * b.to_field()

    def test_order_of_field_image(self):
        for p, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
            alpha = RootOfUnity(p, n, 1)
            image = alpha.to_field()
            assert image ** (p ** n) == 1
            assert image ** (p ** (n - 1)) != 1

    def test_from_exponent(self):
        assert RootOfUnity.from_exponent(2, Fraction(3, 8)) == RootOfUnity(2, 3, 3)
        with pytest.raises(ValueError):
            RootOfUnity.from_exponent(2, Fraction(1, 3))

    def test_recognition_round_trip(self):
        rng = random.Random(31)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            alpha = random_root(rng, p)
            assert as_root_of_unity(alpha.to_field(), p) == alpha
        assert as_root_of_unity(CycNum.rational(2), 2) is None
        assert as_root_of_unity(CycNum.rational(-1), 3) is None


class TestFieldLaws:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_axioms(self, p):
        rng = random.Random(500 + p)
        for _ in range(60):
            u = random_cycnum(rng, p)
            v = random_cycnum(rng, p)
            w = random_cycnum(rng, p)
            assert u + v == v + u
            assert u * v == v * u
            assert (u + v) + w == u + (v + w)
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert u + (-u) == 0

    def test_multiplicative_order(self):
        assert multiplicative_order(CycNum.one()) == 1
        assert multiplicative_order(CycNum.rational(-1)) == 2
        assert multiplicative_order(zeta(2, 3)) == 8
        assert multiplicative_order(CycNum.rational(2)) is None


class TestSympyOracle:
    """Products and inverses against SymPy's arithmetic modulo the
    cyclotomic polynomial, an implementation independent of this one."""

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (3, 3), (5, 2), (7, 1), (2, 6)])
    def test_mul_and_inverse(self, p, n):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        phi = phi_prime_power(p, n)
        modulus = sympy.Poly(sympy.cyclotomic_poly(p ** n, x), x, domain="QQ")

        def to_poly(u):
            return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(u.coeffs_at_level(n, prime=p))],
                              x, domain="QQ")

        def from_poly(f):
            cs = [Fraction(int(c.p), int(c.q))
                  for c in reversed(f.rem(modulus).all_coeffs())]
            return CycNum.from_coeffs(p, n, cs + [0] * (phi - len(cs)))

        rng = random.Random(700 + 10 * p + n)
        sparse = [random_cycnum(rng, p, max_level=n, nonzero=True) for _ in range(4)]
        dense = [CycNum.from_coeffs(p, n, [rng.choice(NONZERO_POOL) for _ in range(phi)])
                 for _ in range(2)]
        values = sparse + dense
        for u in values:
            for v in values:
                assert u * v == from_poly(to_poly(u) * to_poly(v))
            assert u.inverse() == from_poly(sympy.invert(to_poly(u), modulus))


def brute_splits(u, p):
    """Oracle: every (u / omega, omega) that is rational, scanning all omega
    one level above u's field by repeated multiplication."""
    n = max(u.level, 1) + 1
    step = zeta(p, n, -1)
    found, w = set(), u
    for j in range(p ** n):
        if w.is_rational:
            found.add((w.as_fraction(), RootOfUnity(p, n, j)))
        w = w * step
    return found


def brute_order(u, bound):
    """Oracle: the power scan, smallest t <= bound with u^t = 1."""
    w = u
    for t in range(1, bound + 1):
        if w == 1:
            return t
        w = w * u
    return None


def check_root_readers(u, p):
    splits = root_of_unity_splits(u, p)
    expected = brute_splits(u, p)
    assert len(splits) == len(expected) and set(splits) == expected
    assert as_root_of_unity(u, p) == next(
        (omega for q, omega in expected if q == 1), None)
    top = p ** max(u.level, 1)
    assert multiplicative_order(u) == brute_order(u, 2 * top)


class TestRootOfUnitySplits:
    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                     (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)])
    def test_scaled_roots_match_power_scan(self, p, n):
        for q in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)):
            for j in range(p ** n):
                u = CycNum.rational(q) * zeta(p, n, j)
                assert (q, RootOfUnity(p, n, j)) in root_of_unity_splits(u, p)
                check_root_readers(u, p)

    @pytest.mark.parametrize("p,max_level", [(2, 3), (3, 2), (5, 1), (7, 1)])
    def test_random_values_match_power_scan(self, p, max_level):
        rng = random.Random(600 + p)
        for _ in range(40):
            check_root_readers(random_cycnum(rng, p, max_level, nonzero=True), p)

    def test_other_tower_and_zero_have_no_split(self):
        assert root_of_unity_splits(zeta(3, 1), 2) == []
        assert root_of_unity_splits(CycNum.zero(), 3) == []
        assert as_root_of_unity(zeta(3, 1), 2) is None


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_rational_embedding_matches_fractions(a, b):
    assert CycNum.rational(a) + CycNum.rational(b) == Fraction(a + b)
    assert CycNum.rational(a) * CycNum.rational(b) == Fraction(a * b)


@given(st.sampled_from([2, 3, 5]), st.integers(0, 60), st.integers(0, 60))
def test_zeta_exponent_arithmetic(p, i, j):
    n = 2
    assert zeta(p, n, i) * zeta(p, n, j) == zeta(p, n, i + j)


def test_canonical_demotion():
    # values that collapse to lower levels compare equal to their low form
    assert zeta(2, 2) ** 2 == CycNum.rational(-1)
    assert zeta(2, 2).level == 2
    assert (zeta(2, 2) ** 2).level == 0
    assert zeta(3, 2, 3).level == 1  # zeta_9^3 = zeta_3
    assert hash(zeta(3, 2, 3)) == hash(zeta(3, 1, 1))


def test_prime_power_decompose():
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(9) == (3, 2)
    assert prime_power_decompose(1) == (0, 0)
    assert prime_power_decompose(7) == (7, 1)
    with pytest.raises(ValueError):
        prime_power_decompose(6)

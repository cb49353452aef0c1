"""Exact cyclotomic field arithmetic."""

import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add

import pytest
from hypothesis import example, given, strategies as st

from planeaut import (CycNum, DomainMismatchError, RootOfUnity,
                      as_root_of_unity, cyclotomic, multiplicative_order)
from planeaut.cyclotomic import (MAX_INVERSE_DEGREE, PRIME_LIMIT, is_prime, phi_prime_power,
                                 prime_power_decompose, root_of_unity_splits)
from planeaut.parsing import parse_scalar

from conftest import (NONZERO_POOL, from_vector, random_cycnum, random_root,
                      to_vector)


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

    def test_sum_rejects_a_second_prime(self):
        # even where the pairwise fold first cancels to a rational
        for values in ([zeta(2, 2), CycNum.one(), zeta(3, 1)],
                       [zeta(2, 2), -zeta(2, 2), zeta(3, 1)]):
            with pytest.raises(DomainMismatchError, match="^mixed primes 2 and 3$"):
                CycNum.sum(values)


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

    @pytest.mark.parametrize("p,level", [(2, 0), (2, 3), (3, 2), (5, 2), (7, 1), (7, 2)])
    def test_scaled_root_inverts_as_the_norm_does(self, p, level):
        # c*zeta^j: one term below phi, p - 1 terms from phi on for odd p
        for c in NONZERO_POOL:
            for j in range(p ** level):
                u = c * zeta(p, level, j)
                assert u.inverse() == u._norm_inverse() == zeta(p, level, -j) / c

    @pytest.mark.parametrize("p,level", [(2, 40), (3, 25)])
    def test_scaled_root_at_a_high_level(self, p, level):
        # the norm would square or cube the rational at each of the levels
        phi = phi_prime_power(p, level)
        for j in (1, phi + 1, p ** level - 1):
            u = CycNum.rational(Fraction(-3, 7)) * zeta(p, level, j)
            assert u.inverse() == zeta(p, level, -j) * Fraction(-7, 3)
            assert u * u.inverse() == 1

    def test_degree_budget(self):
        # the largest 2-power field under the budget inverts; the next raises
        top = MAX_INVERSE_DEGREE.bit_length()
        u = 1 + zeta(2, top)
        assert phi_prime_power(2, top) == MAX_INVERSE_DEGREE
        assert u * u.inverse() == 1
        for level in (top + 1, 40):
            with pytest.raises(ValueError, match=f"inverse of a 2-term value in a field "
                               f"of degree {2 ** (level - 1)}, over the budget of "
                               f"{MAX_INVERSE_DEGREE}"):
                (1 + zeta(2, level)).inverse()

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
            u = from_vector(p, level, [rng.choice(NONZERO_POOL)
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
    """Sorted exponents below phi(p^level), nonzero int numerators over a
    positive int denominator prime to them all, and the minimal level: at
    level >= 1 some exponent is prime to p.  Together these leave zero only
    one form, no terms over 1 at level 0."""
    exps = [e for e, _ in w.terms]
    nums = [c for _, c in w.terms]
    return (isinstance(w.terms, tuple)
            and exps == sorted(set(exps))
            and all(0 <= e < phi_prime_power(w.prime, w.level) for e in exps)
            and all(type(c) is int and c for c in nums)
            and type(w.den) is int and w.den > 0
            and gcd(w.den, *nums) == 1
            and (w.level == 0 or any(e % w.prime for e in exps)))


class TestLevelRaise:
    def test_embedding_vector(self):
        # zeta_3 -> zeta_9^3: index dilation by p
        assert (zeta(3, 1) + zeta(3, 2)).terms == ((1, 1), (3, 1))
        assert zeta(3, 1) == zeta(3, 2) ** 3

    def test_ring_homomorphism(self):
        rng = random.Random(7)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            u = random_cycnum(rng, p, max_level=2)
            v = random_cycnum(rng, p, max_level=2)
            n = 3
            for op in (lambda a, b: a + b, lambda a, b: a * b,
                       lambda a, b: a - b, lambda a, b: -a * b ** 3):
                assert is_canonical(op(u, v))
                lifted = op(from_vector(p, n, to_vector(u, p, n)),
                            from_vector(p, n, to_vector(v, p, n)))
                assert to_vector(op(u, v), p, n) == to_vector(lifted, p, n)


# large and coprime denominators, where a common denominator and the
# per-coefficient Fractions differ most
WIDE_POOL = [Fraction(7, 1000003), Fraction(-5, 65536), Fraction(3, 10007),
             Fraction(-1, 3), Fraction(2), Fraction(11, 6)]


def wide_cycnum(rng, p, level, terms=3):
    """A nonzero value of Q(zeta_{p^level}) with WIDE_POOL coefficients."""
    phi = phi_prime_power(p, level)
    while True:
        coeffs = [Fraction(0)] * phi
        for _ in range(terms):
            coeffs[rng.randrange(phi)] = rng.choice(WIDE_POOL)
        value = from_vector(p, level, coeffs)
        if value:
            return value


class TestCommonDenominator:
    def test_numerators_over_one_denominator(self):
        u = from_vector(3, 1, [Fraction(1, 6), Fraction(-3, 4)])
        assert u.terms == ((0, 2), (1, -9)) and u.den == 12
        assert u * 12 == from_vector(3, 1, [2, -9])
        assert (u + u).den == 6
        assert (u - u).terms == () and (u - u).den == 1
        assert is_canonical(u.inverse())

    @pytest.mark.parametrize("value", [0, 1, -1, 7, 10 ** 30, Fraction(1, 2),
                                       Fraction(-7, 1000003), Fraction(0, 5),
                                       Fraction(6, 3)])
    def test_rational_hash_matches_equality(self, value):
        u = CycNum.rational(value)
        assert u == value and hash(u) == hash(value)
        assert u in {value} and value in {u}
        assert {u: "x"}[value] == "x"
        assert is_canonical(u)

    def test_demoted_values_hash_as_rationals(self):
        assert hash(zeta(2, 2) ** 2) == hash(-1)
        assert (zeta(3, 2) - zeta(3, 2)) in {0}
        assert CycNum.one() in {1} and CycNum.zero() in {Fraction(0)}

    @pytest.mark.parametrize("p,max_level", [(2, 4), (3, 2), (5, 2), (7, 1)])
    def test_round_trip(self, p, max_level):
        rng = random.Random(900 + p)
        for _ in range(30):
            level = rng.randint(1, max_level)
            phi = phi_prime_power(p, level)
            vector = [rng.choice(WIDE_POOL + [Fraction(0)] * 3)
                      for _ in range(phi)]
            u = from_vector(p, level, vector)
            assert is_canonical(u)
            assert to_vector(u, p, level) == vector
            # the same value built one level up demotes to the same form
            assert from_vector(p, level + 1, to_vector(u, p, level + 1)) == u
            assert parse_scalar(str(u)) == u
            v = random_cycnum(rng, p, max_level)
            assert parse_scalar(str(u * v)) == u * v


@given(st.integers(0, 2 ** 32), st.sampled_from([2, 3, 5]), st.integers(1, 6))
def test_sum_matches_the_pairwise_fold(seed, p, count):
    """Mixed levels, denominators and rationals; negating a random part of
    the operands makes totals that cancel to zero or drop a level."""
    rng = random.Random(seed)
    values = [rng.choice([random_cycnum(rng, p),
                          wide_cycnum(rng, p, rng.randint(1, 2)),
                          CycNum.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))])
              for _ in range(count)]
    values += [-v for v in values if rng.random() < 0.5]
    rng.shuffle(values)
    total = CycNum.sum(values)
    assert total == reduce(add, values) and is_canonical(total)


@given(st.integers(0, 2 ** 32), st.sampled_from([2, 3, 5, 7]), st.integers(1, 6))
@example(1, 2, 1)
def test_dot_matches_the_pairwise_fold(seed, p, count):
    """One reduction for sum(x * y) equals a product per pair folded by +:
    mixed levels 0-3, wide denominators, rational factors on one side, both
    sides or none, and negated pairs whose products cancel."""
    rng = random.Random(seed)

    def operand():
        return rng.choice([random_cycnum(rng, p),
                           wide_cycnum(rng, p, rng.randint(1, 2 if p < 7 else 1)),
                           CycNum.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))])

    pairs = [(operand(), operand()) for _ in range(count)]
    pairs += [(-x, y) for x, y in pairs if rng.random() < 0.5]
    rng.shuffle(pairs)
    total = CycNum.dot(pairs)
    assert total == reduce(add, (x * y for x, y in pairs)) and is_canonical(total)


def test_dot_rejects_a_second_prime():
    # the first two primes in pair order, even where the products would cancel
    for pairs, first, second in [
            ([(zeta(3, 1), CycNum.one()), (zeta(3, 1), -CycNum.one()),
              (zeta(5, 1), CycNum.one())], 3, 5),
            ([(CycNum.one(), zeta(2, 2)), (zeta(3, 1), zeta(3, 1, 2))], 2, 3),
            ([(zeta(5, 1), zeta(2, 2))], 5, 2)]:
        with pytest.raises(DomainMismatchError, match=f"^mixed primes {first} and {second}$"):
            CycNum.dot(pairs)


def general_dot(pairs):
    """The same sum by dot's many-pair path: a (0, 0) pair added."""
    return CycNum.dot(list(pairs) + [(CycNum.zero(), CycNum.zero())])


SCALARS = [1, -1, Fraction(3, 4), Fraction(-11, 1024), 10 ** 20 + 1]


def one_term_value(rng, p, top):
    """0, +-1, a rational, or q * zeta_{p^n}^j for n <= top and any j < p^n
    (the p - 1 terms of j >= phi for odd p)."""
    if rng.random() < 0.3:
        return CycNum.rational(rng.choice([0, 1, -1, Fraction(-7, 1000003)]))
    n = rng.randint(1, top)
    return zeta(p, n, rng.randrange(p ** n)) * rng.choice(SCALARS)


@given(st.integers(0, 2 ** 32), st.sampled_from([2, 3, 5, 7]))
@example(0, 2)
def test_one_term_products_match_the_general_path(seed, p):
    """One-term by one-term (one exponent sum), one-term by many-term and
    products by +-1 and 0 equal dot's many-pair path, in both orders; a
    partner root whose exponent sum is a multiple of p makes products that
    fall to a lower level or to a rational."""
    rng = random.Random(seed)
    top = 1 if p == 7 else 3
    n = rng.randint(1, top)
    j = rng.randrange(p ** n)
    x = zeta(p, n, j) * rng.choice(SCALARS)
    partner = zeta(p, n, rng.randrange(p ** (n - 1)) * p - j) * rng.choice(SCALARS)
    for y in [partner, one_term_value(rng, p, top), random_cycnum(rng, p, top),
              wide_cycnum(rng, p, rng.randint(1, top)), CycNum.one(), -CycNum.one(),
              CycNum.zero()]:
        for a, b in ((x, y), (y, x)):
            got = a * b
            assert got == general_dot([(a, b)]) and is_canonical(got)


@given(st.integers(0, 2 ** 32), st.sampled_from([2, 3, 5, 7]))
@example(0, 3)
def test_two_value_sums_match_the_general_path(seed, p):
    """x + y, x - y and the reflected y.__rsub__(x) equal dot's many-pair
    path over mixed levels, denominators, 0 and +-1; y = x, -x and x minus a
    rational cancel to zero or to level 0."""
    rng = random.Random(seed)
    top = 1 if p == 7 else 3
    x = rng.choice([random_cycnum(rng, p, top), one_term_value(rng, p, top),
                    wide_cycnum(rng, p, rng.randint(1, top))])
    one = CycNum.one()
    for y in [random_cycnum(rng, p, top), one_term_value(rng, p, top),
              wide_cycnum(rng, p, rng.randint(1, top)), x, -x,
              x - Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
              CycNum.zero(), one, -one]:
        for a, b in ((x, y), (y, x)):
            difference = general_dot([(a, one), (b, -one)])
            for got, want in [(a + b, general_dot([(a, one), (b, one)])),
                              (a - b, difference), (b.__rsub__(a), difference)]:
                assert got == want and is_canonical(got)
    for q in (1, -1, Fraction(3, 2)):
        assert q - x == general_dot([(CycNum.rational(q), one), (x, -one)])


@pytest.mark.parametrize("x,y", [
    (zeta(3, 1), zeta(5, 2)), (zeta(2, 3, 3), zeta(3, 2, 7)), (zeta(7, 1, 6), zeta(2, 2)),
    (1 + zeta(3, 2), zeta(5, 1)), (zeta(2, 2) * Fraction(1, 3), zeta(3, 1) - 2)])
def test_fast_paths_reject_a_second_prime(x, y):
    # the first operand's prime is named first, in either order
    for a, b in ((x, y), (y, x)):
        for op in (lambda: a * b, lambda: a + b, lambda: a - b, lambda: b.__rsub__(a)):
            with pytest.raises(DomainMismatchError,
                               match=f"^mixed primes {a.prime} and {b.prime}$"):
                op()


def test_one_term_product_demotes():
    # z(8)^2 = z(4), and z(4) * z(4) crosses phi into -1 at level 0
    square = zeta(2, 3, 2) * zeta(2, 3, 2)
    assert square == -1 and square.level == 0 and is_canonical(square)
    assert zeta(3, 2, 5) * zeta(3, 2, 7) == zeta(3, 1, 1)  # z(9)^12 = z(3)
    assert zeta(5, 2, 3) * zeta(5, 2, 22) == 1


class TestIdentityShortcuts:
    """Multiplying by 1 returns the other operand, and a rational power is
    two integer powers; both must keep the canonical form."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_one_is_a_two_sided_identity(self, p):
        rng = random.Random(1500 + p)
        one = CycNum.one()
        values = [CycNum.zero(), one, -one, zeta(p, 3)]
        values += [random_cycnum(rng, p, max_level=3) for _ in range(40)]
        for u in values:
            for w in (one * u, u * one, 1 * u, u * 1, Fraction(3, 3) * u):
                assert w == u and is_canonical(w)

    def test_one_does_not_hide_mixed_primes(self):
        with pytest.raises(DomainMismatchError):
            zeta(3, 2) * 1 * zeta(2, 2)
        with pytest.raises(DomainMismatchError):
            zeta(3, 2) * (CycNum.one() * zeta(2, 2))


BIG = 10 ** 30


@given(st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                 st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))),
       st.integers(-5, 40))
@example(Fraction(0), -3)
def test_rational_power_matches_fractions(q, e):
    u = CycNum.rational(q)
    if q == 0 and e < 0:
        with pytest.raises(ZeroDivisionError):
            u ** e
        return
    w = u ** e
    assert w.level == 0 and w.as_fraction() == q ** e
    assert w.den > 0 and gcd(w.den, *(c for _, c in w.terms)) == 1
    if q == 0 and e:
        assert w.terms == () and w.den == 1
    assert is_canonical(w)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (3, 20)])
def test_p_minus_one_term_root_powers_by_one_exponent_product(monkeypatch, p, n):
    """A rational times the root zeta^-1 is p - 1 terms, and its power is
    one _monomial, with no product (CycNum.dot), at any exponent."""
    j = p ** n - 1
    cases = [(c, e) for c, es in ((Fraction(-2, 3), (1, 2, p, 41)), (Fraction(1), (10 ** 12,)),
                                  (Fraction(-1), (10 ** 12 - 1, 3 ** 25))) for e in es]
    expected = [CycNum._monomial(p, n, j * e, c.numerator ** e, c.denominator ** e)
                for c, e in cases]
    bases = [zeta(p, n, j) * c for c, _ in cases]
    assert all(len(u.terms) == p - 1 for u in bases)
    calls = []
    dot = CycNum.dot
    monkeypatch.setattr(CycNum, "dot", staticmethod(lambda pairs: calls.append(1) or dot(pairs)))
    assert [u ** e for u, (_, e) in zip(bases, cases)] == expected
    assert calls == []


class TestRootOfUnity:
    def test_to_field_examples(self):
        assert RootOfUnity(2, 1, 1).to_field() == -1
        assert RootOfUnity(2, 2, 1).to_field() == zeta(2, 2)
        assert RootOfUnity(3, 0, 0).to_field() == 1

    def test_root_mul_examples(self):
        z2 = RootOfUnity(2, 1, 1)
        assert (z2 * z2).level == 0
        assert RootOfUnity(2, 2, 1) * z2 == RootOfUnity(2, 2, 3)
        assert RootOfUnity(3, 2, 1) * RootOfUnity(3, 1, 1) == RootOfUnity(3, 2, 4)

    def test_normalization(self):
        assert RootOfUnity(2, 3, 4) == RootOfUnity(2, 1, 1)  # zeta_8^4 = zeta_2
        assert RootOfUnity(5, 2, 25).level == 0

    def test_mixed_primes_rejected(self):
        with pytest.raises(DomainMismatchError):
            RootOfUnity(2, 1, 1) * RootOfUnity(3, 1, 1)

    def test_group_homomorphism_to_field(self):
        rng = random.Random(23)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            a, b = random_root(rng, p), random_root(rng, p)
            assert (a * b).to_field() == a.to_field() * b.to_field()
            for e in [*range(-3, 4), p ** rng.randint(0, 3) + 1]:
                assert (a ** e).to_field() == a.to_field() ** e

    def test_derived_roots_match_the_public_constructors(self):
        # products and powers skip the prime check, not the reduction
        rng = random.Random(29)
        for _ in range(80):
            p = rng.choice([2, 3, 5, 7])
            a, b = random_root(rng, p), random_root(rng, p)
            e = rng.choice([-p ** 2 - 1, -1, 0, 2, p, p ** rng.randint(0, 3) + 1])
            for got, exponent in [
                    (a * b, Fraction(a.exp, a.order) + Fraction(b.exp, b.order)),
                    (a ** e, Fraction(a.exp * e, a.order))]:
                want = RootOfUnity.from_exponent(p, exponent)
                assert ((got.prime, got.level, got.exp)
                        == (want.prime, want.level, want.exp)), (a, b, e)
            want = zeta(p, a.level, a.exp) if a.level else CycNum.one()
            assert a.to_field() == want

    @pytest.mark.parametrize("build,p", [
        pytest.param(lambda: RootOfUnity(4, 1, 1), 4, id="root"),
        pytest.param(lambda: CycNum.zeta(9, 1), 9, id="zeta"),
        pytest.param(lambda: RootOfUnity.from_exponent(6, Fraction(1, 6)), 6,
                     id="from-exponent"),
    ])
    def test_public_constructors_check_the_prime(self, build, p):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            build()

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
    """Products, sums and inverses against SymPy's arithmetic modulo the
    cyclotomic polynomial, an implementation independent of this one.  Both
    sides are compared as coefficient vectors; the package's side is read off
    its terms by the test helper to_vector, so no package conversion sits
    between the two."""

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (3, 3), (5, 2), (7, 1), (2, 6)])
    def test_mul_and_inverse(self, p, n):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        phi = phi_prime_power(p, n)
        modulus = sympy.Poly(sympy.cyclotomic_poly(p ** n, x), x, domain="QQ")

        def to_poly(u):
            return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(to_vector(u, p, n))], x, domain="QQ")

        def vector(f):
            cs = [Fraction(int(c.p), int(c.q))
                  for c in reversed(f.rem(modulus).all_coeffs())]
            return cs + [Fraction(0)] * (phi - len(cs))

        def check(w, f):
            # w is in canonical form and holds the value SymPy computed
            assert is_canonical(w) and to_vector(w, p, n) == vector(f)

        rng = random.Random(700 + 10 * p + n)
        sparse = [random_cycnum(rng, p, max_level=n, nonzero=True) for _ in range(4)]
        dense = [from_vector(p, n, [rng.choice(NONZERO_POOL) for _ in range(phi)])
                 for _ in range(2)]
        # large coprime denominators at mixed levels
        wide = [wide_cycnum(rng, p, level) for level in sorted({1, (n + 1) // 2, n})]
        # one-term roots, which take the field's one-term product path
        roots = [zeta(p, level, rng.randrange(p ** level)) * rng.choice(NONZERO_POOL)
                 for level in (1, n)]
        values = sparse + dense + wide + roots
        for u in values:
            for v in values:
                check(u * v, to_poly(u) * to_poly(v))
                check(u + v, to_poly(u) + to_poly(v))
            check(u.inverse(), sympy.invert(to_poly(u), modulus))
        # one reduction for a whole sum of products, and for a sum of values
        for pairs in (list(zip(values, reversed(values))), list(zip(values, values[1:]))):
            check(CycNum.dot(pairs), sum((to_poly(u) * to_poly(v) for u, v in pairs),
                                         sympy.Poly(0, x, domain="QQ")))
        check(CycNum.sum(values), sum(map(to_poly, values), sympy.Poly(0, x, domain="QQ")))


def brute_splits(u, p):
    """Oracle: every (u / omega, omega) that is rational, scanning all omega
    one level above u's field by repeated multiplication."""
    n = max(u.level, 1) + 1
    step = zeta(p, n, -1)
    found, w = set(), u
    for j in range(p ** n):
        if w.level == 0:
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


def test_root_term_shapes():
    # a primitive zeta^j is one term below phi and p - 1 terms from phi on
    assert str(zeta(3, 1, 2)) == "-1 + -z(3)"
    for p, n in [(2, 3), (3, 1), (3, 2), (5, 2), (7, 1)]:
        phi, q = phi_prime_power(p, n), p ** (n - 1)
        for j in range(1, p ** n):
            if j % p:
                expected = (((j, 1),) if j < phi else
                            tuple((j - phi + i * q, -1) for i in range(p - 1)))
                assert zeta(p, n, j).terms == expected


def test_prime_power_decompose():
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(9) == (3, 2)
    assert prime_power_decompose(1) == (0, 0)
    assert prime_power_decompose(7) == (7, 1)
    with pytest.raises(ValueError):
        prime_power_decompose(6)


# 997 and 1009 are the primes on either side of the limit
def test_primes_up_to_the_limit_are_recognized():
    assert PRIME_LIMIT == 1000
    assert prime_power_decompose(997) == (997, 1)
    assert prime_power_decompose(997 ** 2) == (997, 2)
    assert is_prime(997) and not is_prime(1001) and not is_prime(1)
    assert CycNum.zeta(997, 1).modulus() == 997
    with pytest.raises(ValueError, match="^1001 is not prime$"):
        CycNum.zeta(1001, 1)
    with pytest.raises(ValueError, match="^modulus is not a prime power$"):
        prime_power_decompose(2 * 1009)


@pytest.mark.parametrize("m", [1009, 1009 ** 2, 1009 * 1013,
                               1000000000000000003])
def test_no_prime_factor_up_to_the_limit_is_rejected(m):
    # trial division stops at the limit, so even a 19-digit prime is quick
    message = f"^{m} has no prime factor up to the limit 1000$"
    with pytest.raises(ValueError, match=message):
        prime_power_decompose(m)
    with pytest.raises(ValueError, match=message):
        is_prime(m)
    with pytest.raises(ValueError, match=message):
        RootOfUnity.one(m)


def canonical(p, n, coeffs):
    """(prime, level, terms, den) of sum(c * zeta_{p^n}^e) over the Fraction
    coefficients of exponents below phi(p^n), read off with no field code:
    the numerators over the lcm of the denominators, then demoted while
    every exponent is a multiple of p."""
    coeffs = {e: c for e, c in coeffs.items() if c}
    den = lcm(1, *(c.denominator for c in coeffs.values()))
    terms = sorted((e, int(c * den)) for e, c in coeffs.items())
    while n and all(e % p == 0 for e, _ in terms):
        terms = [(e // p, c) for e, c in terms]
        n -= 1
    return p if n else None, n, tuple(terms), den


def as_tuple(w):
    return w.prime, w.level, w.terms, w.den


# Q(zeta_{p^n}) for p in {2, 3, 5, 7} at levels 0-3 (Q at level 0), the field
# at DENSE_PHI_LIMIT (z(128), phi = 64) and the one above it (z(256)): the
# list accumulator up to phi = 64, the dict one above (5^3, 7^3, 2^8)
ORACLE_FIELDS = [(p, n) for p in (2, 3, 5, 7) for n in range(4)] + [(2, 7), (2, 8)]
HUGE = 40   # z(2^40): only a dict holds its sparse values


class TestKernelOracle:
    """CycNum.dot, + and -, _from_exponent_map and inverse against SymPy's
    sparse polynomials over QQ reduced by rem modulo Phi_{p^n}, each result
    compared as its canonical (prime, level, terms, den), read off the SymPy
    remainder by canonical().  Run at the default accumulator bound and at a
    bound of 1, where every field but Q takes the dict accumulator."""

    @pytest.fixture(params=["default", 1])
    def bound(self, request, monkeypatch):
        if request.param != "default":
            monkeypatch.setattr(cyclotomic, "DENSE_PHI_LIMIT", request.param)
        return request.param

    @staticmethod
    def oracle(p, n):
        """(ring generator x, u -> u as a ring element, ring element ->
        canonical tuple of its remainder modulo Phi_{p^n})."""
        sympy = pytest.importorskip("sympy")
        from sympy.polys.rings import ring
        QQ = sympy.QQ
        R, x = ring("x", QQ)
        q = p ** (n - 1) if n else 1
        if n == HUGE:   # Phi_{p^n}(x) = Phi_p(x^q), checked below on small fields
            modulus = R.from_expr(sympy.cyclotomic_poly(p, sympy.Symbol("x"))).compose(x, x ** q)
        else:
            modulus = R.from_expr(sympy.cyclotomic_poly(p ** n, sympy.Symbol("x")))

        def to_ring(u):
            assert u.level <= n and u.prime in (None, p)
            f = p ** (n - u.level) if n else 1
            return sum((QQ(c, u.den) * x ** (e * f) for e, c in u.terms), R.zero)

        def reduced(g):
            r = g.rem(modulus)
            return canonical(p, n, {e: Fraction(int(c.numerator), int(c.denominator))
                                    for (e,), c in r.terms()})
        return x, to_ring, reduced

    @staticmethod
    def values(rng, p, n, count, max_terms):
        """count canonical values of the field and its subfields, built from
        canonical(), with up to max_terms terms and mixed denominators."""
        out = []
        for _ in range(count):
            level = rng.randint(0, n) if n != HUGE else rng.choice([0, 1, HUGE - 1, HUGE])
            phi = phi_prime_power(p, level)
            exps = {rng.randrange(phi) for _ in range(rng.randint(1, max_terms))}
            if level and rng.random() < 0.5:
                exps.add(phi - 1)   # a top exponent, whose products cross phi
            coeffs = {e: Fraction(rng.choice([1, -1, 2, -3, 5, 7]), rng.choice([1, 1, 2, 3, 10]))
                      for e in exps}
            out.append(CycNum(*canonical(p, level, coeffs)))
        return out

    def check_field(self, p, n, seed, max_terms, rounds):
        x, to_ring, reduced = self.oracle(p, n)
        rng = random.Random(seed)
        m = p ** n
        for _ in range(rounds):
            vals = self.values(rng, p, n, 6, max_terms)
            for u, v in zip(vals, vals[1:]):
                assert as_tuple(u + v) == reduced(to_ring(u) + to_ring(v))
                assert as_tuple(u - v) == reduced(to_ring(u) - to_ring(v))
            for size in (1, 2, 3, 5):
                pairs = [(rng.choice(vals), rng.choice(vals)) for _ in range(size)]
                expected = reduced(sum((to_ring(a) * to_ring(b) for a, b in pairs), x * 0))
                assert as_tuple(CycNum.dot(pairs)) == expected
            # one-term values and rational multiples of roots zeta^j, j >=
            # phi (p - 1 terms for odd p): a product of two one-term values
            # is one exponent sum, and a power or an inverse of any of them
            # one exponent product, each past phi for some
            roots = [v for v in self.values(rng, p, n, 6, max_terms=1) if len(v.terms) == 1]
            if n:
                roots += [zeta(p, n, rng.randrange(phi_prime_power(p, n), m))
                          * Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 10]))
                          for _ in range(3)]
            for u in roots:
                for v in roots:
                    assert as_tuple(u * v) == reduced(to_ring(u) * to_ring(v))
                k = rng.choice([2, 3, p, p + 1])
                assert as_tuple(u ** k) == reduced(to_ring(u) ** k)
                assert reduced(to_ring(u) * to_ring(u.inverse())) == (None, 0, ((0, 1),), 1)
            # exponents below zero and past p^n, one repeated modulo p^n (every
            # exponent at level 0), any denominator
            emap = {rng.randrange(-3 * m, 3 * m): rng.choice([1, -2, 3, 6])
                    for _ in range(rng.randint(1, 4))}
            emap[next(iter(emap)) + m] = rng.choice([1, -2, 3, 6])
            den = rng.choice([1, 2, 6, 35])
            expected = reduced(sum((x ** (e % m) * Fraction(c, den)
                                    for e, c in emap.items()), x * 0))
            assert as_tuple(CycNum._from_exponent_map(p, n, emap.items(), den)) == expected

    @pytest.mark.parametrize("p,n", ORACLE_FIELDS)
    def test_field_operations(self, bound, p, n):
        self.check_field(p, n, 9100 + 10 * p + n, max_terms=min(phi_prime_power(p, n), 12),
                         rounds=3)

    @pytest.mark.parametrize("p,n", [(p, n) for p, n in ORACLE_FIELDS if n])
    def test_inverse(self, bound, p, n):
        # w is the inverse of u exactly when SymPy's u*w is 1 modulo Phi
        _, to_ring, reduced = self.oracle(p, n)
        rng = random.Random(9300 + 10 * p + n)
        for u in self.values(rng, p, n, 4, max_terms=6):
            if not u.is_zero:
                w = u.inverse()
                assert is_canonical(w) and w.level <= n
                assert reduced(to_ring(u) * to_ring(w)) == (None, 0, ((0, 1),), 1)

    def test_huge_sparse_field(self, bound):
        # two- and three-term values of z(2^40), products crossing phi = 2^39
        self.check_field(2, HUGE, 9500, max_terms=3, rounds=4)

    def test_huge_modulus_is_phi_p_of_x_to_the_q(self):
        # the identity the huge field's modulus is built by, on SymPy's own
        # cyclotomic polynomials
        sympy = pytest.importorskip("sympy")
        X = sympy.Symbol("x")
        for p, n in [(2, 5), (3, 3), (5, 2), (7, 2)]:
            assert sympy.expand(sympy.cyclotomic_poly(p, X).subs(X, X ** p ** (n - 1))
                                - sympy.cyclotomic_poly(p ** n, X)) == 0

    def test_both_accumulators_reached(self, bound):
        # the bound picks the accumulator by phi alone, and the oracle's
        # fields reach the default bound and pass it
        limit = cyclotomic.DENSE_PHI_LIMIT
        assert type(cyclotomic._accumulator(limit, 1)) is list
        assert type(cyclotomic._accumulator(limit + 1, 1)) is not list
        phis = {phi_prime_power(p, n) for p, n in ORACLE_FIELDS}
        assert limit in phis and max(phis) > limit or bound == 1

"""The shift-map construction and its closed-form conjugation identity."""

import random

import pytest

from planeaut import (CoeffSequence, CycNum, DomainMismatchError, PlaneEndo,
                      RootOfUnity, SparsePoly, TriangularAffine, compose,
                      conj_closed_form, conjugate, diag, endo_order, parse_endo,
                      series_truncation, verify_formula)
from planeaut import prufer
from planeaut.prufer import exponent_of

from conftest import count_inverses, random_prefix, random_root, random_sequence

x2 = SparsePoly.x2


class TestCoeffSequence:
    def test_accessor_totality(self):
        s = CoeffSequence(2, [1, 2], [3, 0])
        assert [s.coeff(k).as_fraction() for k in range(7)] == [1, 2, 3, 0, 3, 0, 3]

    def test_zero_tail(self):
        s = CoeffSequence(3, [5])
        assert s.tail == (CycNum.zero(),)
        assert s.coeff(10) == CycNum.zero()

    def test_all_zero_block_normalizes_to_zero_tail(self):
        assert CoeffSequence(2, [1], [0, 0]).tail == (CycNum.zero(),)

    def test_empty_block_is_zero_tail(self):
        # what the CLI builds from --tail " "
        s = CoeffSequence(2, [1], [])
        assert s.tail == (CycNum.zero(),) and s.period == 1
        assert s == CoeffSequence(2, [1])

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError):
            CoeffSequence(2, [1], [1]).coeff(-1)

    @pytest.mark.parametrize("prime,prefix,tail", [
        pytest.param(2, [CycNum.zeta(3, 1)], None, id="prefix"),
        pytest.param(3, [1], [0, CycNum.zeta(2, 2)], id="tail"),
    ])
    def test_foreign_prime_entry_rejected(self, prime, prefix, tail):
        with pytest.raises(DomainMismatchError, match=f"not {prime}$"):
            CoeffSequence(prime, prefix, tail)


class TestDiag:
    def test_identity(self):
        assert diag(RootOfUnity.one(3)) == PlaneEndo.identity()

    def test_negation(self):
        assert diag(RootOfUnity(2, 1, 1)) == parse_endo("(-x1, -x2)")

    def test_zeta3(self):
        z3 = CycNum.zeta(3, 1)
        assert diag(RootOfUnity(3, 1, 1)) == TriangularAffine.scaling(z3, z3)


class TestSeriesTruncation:
    def test_exponent_schedule_p2(self):
        # w_k = x2^(p^k + 1): exponents 2, 3 at p = 2
        s = CoeffSequence(2, [1, 1])
        assert series_truncation(s, 1) == parse_endo("(x1 + x2^2 + x2^3, x2)")

    def test_all_zero_gives_identity(self):
        s = CoeffSequence(5, [0, 0])
        assert series_truncation(s, 3) == PlaneEndo.identity()

    def test_single_term_p3(self):
        s = CoeffSequence(3, [2])
        assert series_truncation(s, 0) == parse_endo("(x1 + 2*x2^2, x2)")

    def test_truncation_reads_tail(self):
        s = CoeffSequence(2, [], [1])
        assert series_truncation(s, 2) == parse_endo(
            "(x1 + x2^2 + x2^3 + x2^5, x2)")

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="truncation bound must be nonnegative"):
            series_truncation(CoeffSequence(2, [1]), -1)


class TestClosedForm:
    def test_alpha_one_gives_identity(self):
        s = CoeffSequence(2, [1, 1], [1])
        assert conj_closed_form(s, RootOfUnity.one(2)) == PlaneEndo.identity()

    def test_level_one_example(self):
        s = CoeffSequence(2, [1, 1])
        # k=0 coefficient alpha*a0*(1-alpha) = -2; k=1 vanishes since alpha^2 = 1
        assert conj_closed_form(s, RootOfUnity(2, 1, 1)) == parse_endo(
            "(-x1 - 2*x2^2, -x2)")

    def test_level_two_example(self):
        s = CoeffSequence(2, [1, 1])
        alpha = RootOfUnity(2, 2, 1)
        got = conj_closed_form(s, alpha)
        # cross-checked against brute-force conjugation
        assert got == conjugate(diag(alpha), series_truncation(s, 1))
        z4 = CycNum.zeta(2, 2)
        assert got.f1.coefficient(0, 2) == z4 * (1 - z4)
        assert got.f1.coefficient(0, 3) == z4 * (1 - z4 ** 2)

    def test_vanishing_beyond_level(self):
        s = CoeffSequence(2, [], [1])  # all-ones tail, nonzero forever
        alpha = RootOfUnity(2, 2, 1)
        got = conj_closed_form(s, alpha)
        for k in range(2, 8):
            assert got.f1.coefficient(0, 2 ** k + 1).is_zero
        assert got.f1.degree == 2 ** 1 + 1

    def test_prime_mismatch(self):
        with pytest.raises(ValueError):
            conj_closed_form(CoeffSequence(2, [1]), RootOfUnity(3, 1, 1))

    def test_one_product_per_term_matches_two(self):
        # a_k * (alpha - alpha^(p^k+1)) against alpha * a_k * (1 - alpha^(p^k))
        rng = random.Random(71)
        for p in (2, 3, 5, 7):
            for level in range(4):
                for _ in range(3):
                    exp = rng.choice([j for j in range(p ** level) if j % p]) if level else 0
                    alpha = RootOfUnity(p, level, exp)
                    s = random_sequence(rng, p, max_prefix=5)
                    af = alpha.to_field()
                    want = {(1, 0): af}
                    for k in range(level):
                        c = s.coeff(k)
                        if not c.is_zero:
                            want[0, exponent_of(p, k)] = af * c * (
                                1 - (alpha ** p ** k).to_field())
                    assert conj_closed_form(s, alpha) == PlaneEndo(
                        SparsePoly(want), x2() * af), (s, alpha)


class TestVerifyFormula:
    def test_alpha_one(self):
        s = CoeffSequence(2, [1, 0, 2], [1])
        assert verify_formula(s, RootOfUnity.one(2))

    def test_level_one(self):
        assert verify_formula(CoeffSequence(2, [1, 1]), RootOfUnity(2, 1, 1))

    def test_p3(self):
        assert verify_formula(CoeffSequence(3, [1]), RootOfUnity(3, 1, 1))

    def test_randomized_grid(self):
        rng = random.Random(61)
        for p in (2, 3, 5):
            for level in range(0, 3 + 1):
                for exp in (1, p ** level - 1 if level else 0):
                    alpha = RootOfUnity(p, level, exp)
                    for _ in range(3):
                        s = random_sequence(rng, p)
                        assert verify_formula(s, alpha)

    def test_truncation_consistency(self):
        rng = random.Random(67)
        for _ in range(10):
            p = rng.choice([2, 3])
            s = random_sequence(rng, p)
            alpha = RootOfUnity(p, 2, 1)
            base = conjugate(diag(alpha), series_truncation(s, 2))
            for n in (3, 4):
                assert conjugate(diag(alpha), series_truncation(s, n)) == base


def three_truncations(s, alpha):
    """The oracle: conjugate diag(alpha) by the truncations at N, N+1 and
    N+2, N = level(alpha), each against the closed form."""
    expected = conj_closed_form(s, alpha)
    n = alpha.level
    for trunc in range(n, n + 3):
        theta = series_truncation(s, trunc)
        if conjugate(diag(alpha), theta) != expected:
            return False
    return True


CLOSED_FORM = conj_closed_form


def formula_cases(seed):
    """(s, alpha) for p in {2, 3, 5, 7} and alpha of level 0-3, two of each."""
    rng = random.Random(seed)
    for p in (2, 3, 5, 7):
        for level in range(4):
            for _ in range(2):
                exp = rng.choice([j for j in range(p ** level) if j % p]) if level else 0
                yield random_sequence(rng, p, max_prefix=5), RootOfUnity(p, level, exp)


def dropped_term(k):
    """The closed form without its x2^(p^k+1) term."""
    def wrong(s, alpha):
        right = CLOSED_FORM(s, alpha)
        mono = (0, exponent_of(s.prime, k))
        return PlaneEndo(SparsePoly({m: c for m, c in right.f1.terms() if m != mono}),
                         right.f2)
    return wrong


def extra_term(offset):
    """The closed form plus x2^(p^k+1) for k = level(alpha) + offset."""
    def wrong(s, alpha):
        right = CLOSED_FORM(s, alpha)
        extra = SparsePoly.monomial(0, exponent_of(s.prime, alpha.level + offset))
        return PlaneEndo(right.f1 + extra, right.f2)
    return wrong


def changed_x2_scalar(s, alpha):
    right = CLOSED_FORM(s, alpha)
    return PlaneEndo(right.f1, right.f2 * 2)


class TestOneTruncation:
    """verify_formula composes once, at N + 2, as diag*theta == theta*h, and
    gives the verdict of the loop of conjugations at N, N+1 and N+2 that it
    replaced, also on wrong closed forms."""

    @staticmethod
    def agree(s, alpha):
        verdict = verify_formula(s, alpha)
        assert verdict == three_truncations(s, alpha), (s, alpha)
        return verdict

    @staticmethod
    def patch(monkeypatch, wrong):
        monkeypatch.setattr(prufer, "conj_closed_form", wrong)
        monkeypatch.setitem(globals(), "conj_closed_form", wrong)

    def test_as_built(self):
        for s, alpha in formula_cases(89):
            assert self.agree(s, alpha)

    def test_makes_no_inverse(self, monkeypatch):
        maps = [0]
        inverse = TriangularAffine.inverse

        def counting(self):
            maps[0] += 1
            return inverse(self)

        monkeypatch.setattr(TriangularAffine, "inverse", counting)
        scalars = count_inverses(monkeypatch)
        for s, alpha in formula_cases(89):
            assert verify_formula(s, alpha)
        assert (maps, scalars) == ([0], [0])

    def test_dropped_term_below_the_level(self, monkeypatch):
        rng = random.Random(97)
        verdicts = []
        for s, alpha in formula_cases(89):
            if not alpha.level:
                continue
            k = rng.randrange(alpha.level)
            self.patch(monkeypatch, dropped_term(k))
            verdict = self.agree(s, alpha)
            # a wrong form only where the dropped term is nonzero
            assert verdict == CLOSED_FORM(s, alpha).f1.coefficient(
                0, exponent_of(s.prime, k)).is_zero
            verdicts.append(verdict)
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("offset", [0, 1, 2, 3])
    def test_extra_term_at_or_above_the_level(self, monkeypatch, offset):
        self.patch(monkeypatch, extra_term(offset))
        for s, alpha in formula_cases(89):
            assert not self.agree(s, alpha)

    def test_changed_x2_scalar(self, monkeypatch):
        self.patch(monkeypatch, changed_x2_scalar)
        for s, alpha in formula_cases(89):
            assert not self.agree(s, alpha)


class TestEmbedding:
    """alpha -> conj_closed_form(s, alpha) is a homomorphism that keeps orders."""

    def test_identity_pair(self):
        s = CoeffSequence(5, [1])
        one = RootOfUnity.one(5)
        element = conj_closed_form(s, one)
        assert conj_closed_form(s, one * one) == compose(element, element)
        assert endo_order(element, one.order) == one.order

    def test_zeta4_pair(self):
        s = CoeffSequence(2, [1, 1])
        a4 = RootOfUnity(2, 2, 1)
        element = conj_closed_form(s, a4)
        prod = conj_closed_form(s, a4 * a4)
        assert prod == compose(element, element)
        assert endo_order(element, a4.order) == a4.order
        assert endo_order(prod, 4) == 2

    def test_inverse_pair(self):
        s = CoeffSequence(5, [1])
        alpha, beta = RootOfUnity(5, 1, 1), RootOfUnity(5, 1, 4)
        prod = conj_closed_form(s, alpha * beta)
        assert prod == compose(conj_closed_form(s, alpha), conj_closed_form(s, beta))
        assert endo_order(conj_closed_form(s, alpha), alpha.order) == alpha.order
        assert prod == PlaneEndo.identity()

    def test_order_preservation(self):
        rng = random.Random(71)
        for p in (2, 3):
            for level in (1, 2):
                s = CoeffSequence(p, random_prefix(rng, level + 1, nonzero=True))
                alpha = RootOfUnity(p, level, 1)
                element = conj_closed_form(s, alpha)
                assert endo_order(element, p ** level) == p ** level

    def test_closed_form_inverse_composes_to_identity(self):
        rng = random.Random(73)
        for _ in range(10):
            p = rng.choice([2, 3])
            s = random_sequence(rng, p)
            alpha = random_root(rng, p, max_level=2)
            lhs = compose(conj_closed_form(s, alpha),
                          conj_closed_form(s, alpha.inverse()))
            assert lhs == PlaneEndo.identity()


class TestPruferConjugate:
    """The conjugate of diag(alpha) by a shift map, read off the closed form."""

    def test_realization_is_polynomial_even_with_infinite_tail(self):
        s = CoeffSequence(2, [], [1])
        endo = conj_closed_form(s, RootOfUnity(2, 3, 3))
        assert endo.f1.degree == 2 ** 2 + 1
        assert endo_order(endo, 8) == 8

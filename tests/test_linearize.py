"""Degree-bounded linearization solver and the degree-growth obstruction."""

import random
import re

import pytest

import planeaut.linearize as linearize
from planeaut import (CoeffSequence, CycNum, PlaneEndo,
                      RootOfUnity, ShapeError, SparsePoly, TriangularAffine,
                      conj_closed_form, conjugate, endo_order,
                      minimal_linearizer_degree, parse_endo,
                      solve_linearization)
from planeaut.endo import resonance

from planeaut.cyclotomic import multiplicative_order

from conftest import count_inverses, random_sequence

# the (p, n) cells of the linearize benchmark workload
WORKLOAD_CELLS = [(2, 4), (2, 5), (2, 6), (3, 3), (5, 2), (7, 2)]


class TestSolve:
    def test_worked_example(self):
        # sign pinned by the composition oracle: g_2 = S_2/(alpha^2 - alpha) = -1
        result = solve_linearization(parse_endo("(-x1 - 2*x2^2, -x2)"), 2)
        assert result.found
        assert result.theta == parse_endo("(x1 - x2^2, x2)")
        assert result.h == parse_endo("(-x1, -x2)")
        assert conjugate(parse_endo("(-x1 - 2*x2^2, -x2)"), result.theta) == result.h

    def test_already_diagonal(self):
        z = CycNum.zeta(3, 1)
        result = solve_linearization(TriangularAffine.scaling(z, z), 3)
        assert result.found
        assert result.theta == TriangularAffine.identity()

    def test_obstruction_reports_required_degree(self):
        # level 3, all prefix entries nonzero: the k=2 term survives at degree 5
        target = conj_closed_form(CoeffSequence(2, [1, 1, 1]), RootOfUnity(2, 3, 1))
        result = solve_linearization(target, 1)
        assert not result.found
        assert result.obstruction_degree == 5

    def test_alpha_one_with_shift_is_obstructed(self):
        result = solve_linearization(parse_endo("(x1 + x2^3 + x2^5, x2)"), 9)
        assert not result.found
        assert result.obstruction_degree == 3

    def test_resonant_degree_beats_a_larger_one_above_the_bound(self):
        # alpha = -1: degree 3 has no solution, degree 6 would exceed the bound
        result = solve_linearization(parse_endo("(-x1 + x2^3 + x2^6, -x2)"), 2)
        assert result.obstruction_degree == 3

    def test_empty_profile_gives_identity(self):
        # alpha = 1 makes every degree resonant, but S has none
        result = solve_linearization(parse_endo("(x1, x2)"), 1)
        assert result.theta == TriangularAffine.identity()
        assert result.h == TriangularAffine.identity()

    def test_shape_check_failures(self):
        shape = re.escape("the target must have the shape (alpha*x1 + S(x2), alpha*x2)")
        with pytest.raises(ShapeError, match=shape):
            solve_linearization(parse_endo("(x1 + x1*x2, x2)"), 2)  # shift involves x1
        with pytest.raises(ShapeError, match="the x2 scaling must be a root of unity"):
            solve_linearization(parse_endo("(2*x1, 2*x2)"), 2)  # infinite-order scaling
        with pytest.raises(ShapeError, match=shape):
            solve_linearization(parse_endo("(-x1, x2 + 1)"), 2)  # x2 image not a scaling
        with pytest.raises(ShapeError, match=shape):
            solve_linearization(parse_endo("(2*x1, x2)"), 2)  # gamma differs from beta
        with pytest.raises(ShapeError, match=shape):
            solve_linearization(parse_endo("(x1 + x2^2, x2 + 1)"), 2)  # beta0 != 0

    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError, match="degree bound must be at least 1"):
            solve_linearization(parse_endo("(-x1 - 2*x2^2, -x2)"), 0)

    def test_free_coefficient_set_to_zero(self):
        # alpha = -1: degree-3 equation is degenerate with S_3 = 0, so g_3 = 0
        result = solve_linearization(parse_endo("(-x1 - 2*x2^2, -x2)"), 5)
        assert result.theta.g.coefficient(0, 3).is_zero


class TestInverseGap:
    """1/(alpha^d - alpha) from sum_{i<m} i w^i, against the tower inverse."""

    @pytest.mark.parametrize("p,n", WORKLOAD_CELLS)
    def test_matches_the_tower_inverse(self, p, n):
        # j = 0 gives the rational +-1; for odd p, -zeta^j is -omega
        for j in range(p ** n):
            for alpha in (CycNum.zeta(p, n, j), -CycNum.zeta(p, n, j)):
                order = multiplicative_order(alpha)
                for d in range(31):
                    if (d - 1) % order:
                        assert (linearize._inverse_gap(alpha, order, d)
                                == (alpha ** d - alpha).inverse()), (p, n, j, d)

    @pytest.mark.parametrize("alpha,order", [
        pytest.param(-CycNum.zeta(3, 1), 6, id="minus-omega"),
        pytest.param(-CycNum.zeta(7, 2, 3), 98, id="minus-omega-level-2"),
        pytest.param(CycNum.rational(-1), 2, id="minus-one"),
        pytest.param(CycNum.zeta(2, 3, 5), 8, id="p2"),
    ])
    def test_constant_term(self, alpha, order):
        # d = 0 makes d - 1 negative: no negative power is formed
        assert linearize._inverse_gap(alpha, order, 0) == (1 - alpha).inverse()

    def test_solve_makes_no_inverse(self, monkeypatch):
        targets = [parse_endo("(-z(3)*x1 + 1 + x2^2, -z(3)*x2)"),
                   parse_endo("(-x1 - 2*x2^2, -x2)"),
                   conj_closed_form(CoeffSequence(7, [1, CycNum.zeta(7, 2, 5), 3]),
                                    RootOfUnity(7, 2, 4))]
        calls = count_inverses(monkeypatch)
        for target in targets:
            assert solve_linearization(target, 50).found
        assert calls == [0]

    def test_budget_reads_the_field_of_w(self):
        # w = alpha = z(4096) lies in a field of degree 2048, over the budget,
        # but w = alpha^2 in Q(z(2048)), of degree 1024
        alpha = CycNum.zeta(2, 12)
        with pytest.raises(ValueError, match="^inverse of alpha\\^2 - alpha in a field of "
                           "degree 2048, over the budget of 1024$"):
            linearize._inverse_gap(alpha, 4096, 2)
        assert linearize._inverse_gap(alpha, 4096, 3) * (alpha ** 3 - alpha) == 1

    @pytest.mark.parametrize("target,bound,degree", [
        ("(z(1099511627776)*x1 + x2 + x2^2, z(1099511627776)*x2)", 3, 1),
        ("(z(1099511627776)*x1 + x2^2 + x2^3, z(1099511627776)*x2)", 2, 3),
    ])
    def test_obstructions_come_before_the_budget(self, target, bound, degree):
        result = solve_linearization(parse_endo(target), bound)
        assert result.obstruction_degree == degree


class TestAgreesWithOrder:
    """linearize and order decide resonance by one rule, endo.resonance."""

    @pytest.mark.parametrize("p,n", WORKLOAD_CELLS)
    def test_linearizes_exactly_when_of_finite_order(self, p, n):
        # the shift-conjugates of diag(alpha), and the same with a resonant
        # x2^d added (alpha^d = alpha at d = 1 and at d = ord alpha + 1)
        rng = random.Random(139 * p + n)
        found = set()
        for _ in range(4):
            alpha = RootOfUnity(p, n, rng.randrange(p ** n))
            order = multiplicative_order(alpha.to_field())
            base = conj_closed_form(random_sequence(rng, p), alpha)
            for d in (None, 1, order + 1):
                target = base if d is None else PlaneEndo(
                    base.f1 + SparsePoly.monomial(0, d, rng.choice((1, -2))), base.f2)
                t = TriangularAffine(target.f1, target.f2)
                result = solve_linearization(target, max(t.g.degree, 1))
                assert result.found == (endo_order(target, order) is not None), str(target)
                if not result.found:
                    assert result.obstruction_degree == resonance(t, order) == d
                found.add(result.found)
        assert found == {True, False}


class TestSoundnessAndCompleteness:
    def test_round_trip_on_constructed_targets(self):
        rng = random.Random(83)
        for _ in range(30):
            p = rng.choice([2, 3, 5])
            level = rng.randint(0, 2)
            alpha = RootOfUnity(p, level, 1 if level else 0)
            s = random_sequence(rng, p)
            target = conj_closed_form(s, alpha)
            bound = max(int(target.f1.degree), 1)
            result = solve_linearization(target, bound)
            assert result.found
            assert conjugate(target, result.theta) == result.h

    def test_monotonicity_in_bound(self):
        target = conj_closed_form(CoeffSequence(2, [1, 1, 1]), RootOfUnity(2, 3, 1))
        succeeded = [bound for bound in range(1, 10)
                     if solve_linearization(target, bound).found]
        assert succeeded == list(range(5, 10))

    def test_obstructed_target_defeats_random_conjugators(self):
        rng = random.Random(89)
        target = conj_closed_form(CoeffSequence(2, [1, 1]), RootOfUnity(2, 2, 1))
        bound = 2  # needs degree 3
        assert not solve_linearization(target, bound).found
        z4 = CycNum.zeta(2, 2)
        diagonal = TriangularAffine.scaling(z4, z4)
        pool = [CycNum.one(), CycNum.rational(-1), CycNum.rational(2), z4]
        for _ in range(200):
            g = SparsePoly({(0, d): rng.choice(pool + [CycNum.zero()])
                            for d in range(bound + 1)})
            theta = TriangularAffine(
                SparsePoly.x1() * rng.choice(pool) + g,
                SparsePoly.x2() * rng.choice(pool) + rng.choice(pool + [CycNum.zero()]))
            assert conjugate(target, theta) != diagonal


class TestMinimalDegree:
    def test_identity_alpha(self):
        s = CoeffSequence(2, [1, 1])
        assert minimal_linearizer_degree(s, RootOfUnity.one(2), 5) == 1

    @pytest.mark.parametrize("level,expected", [(1, 2), (2, 3), (3, 5), (4, 9)])
    def test_degree_growth_p2(self, level, expected):
        s = CoeffSequence(2, [1, 1, 1, 1])
        assert minimal_linearizer_degree(s, RootOfUnity(2, level, 1), 12) == expected

    def test_p3_partial_prefix(self):
        s = CoeffSequence(3, [0, 1])
        assert minimal_linearizer_degree(s, RootOfUnity(3, 2, 1), 10) == 4

    def test_none_when_bound_too_small(self):
        s = CoeffSequence(2, [1, 1, 1, 1])
        assert minimal_linearizer_degree(s, RootOfUnity(2, 4, 1), 8) is None
        assert minimal_linearizer_degree(s, RootOfUnity(2, 4, 1), 0) is None

    def test_matches_per_bound_loop(self):
        # oracle: solve once per bound from 1 up, the first success wins
        rng = random.Random(113)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            level = rng.randint(0, 3 if p == 2 else 2)
            alpha = RootOfUnity(p, level, rng.randrange(p ** level))
            s = random_sequence(rng, p)
            target = conj_closed_form(s, alpha)
            for max_bound in (-1, 0, rng.randint(1, p ** level + 2)):
                expected = next((bound for bound in range(1, max_bound + 1)
                                 if solve_linearization(target, bound).found), None)
                assert minimal_linearizer_degree(s, alpha, max_bound) == expected

    def test_mismatched_prime_rejected(self):
        s = CoeffSequence(2, [1, 1])
        with pytest.raises(ValueError, match="root lives over p=3, sequence over p=2"):
            minimal_linearizer_degree(s, RootOfUnity(3, 1, 1), 5)

    def test_read_off_the_sequence(self, monkeypatch):
        # no closed form is built and nothing is solved on this path
        def forbidden(*args):
            raise AssertionError("min-degree built a target or ran a solve")
        monkeypatch.setattr(linearize, "conj_closed_form", forbidden)
        monkeypatch.setattr(linearize, "solve_linearization", forbidden)
        s = CoeffSequence(2, [], [1])
        alpha = RootOfUnity(2, 40, 1)
        assert minimal_linearizer_degree(s, alpha, 2 ** 39 + 1) == 2 ** 39 + 1
        assert minimal_linearizer_degree(s, alpha, 2 ** 39) is None

    def test_strictly_increasing_in_level(self):
        s = CoeffSequence(2, [1, 1, 1, 1], [1])
        degrees = [minimal_linearizer_degree(s, RootOfUnity(2, n, 1), 20)
                   for n in range(1, 5)]
        assert degrees == sorted(degrees)
        assert len(set(degrees)) == len(degrees)

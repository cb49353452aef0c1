"""Sequence comparator, pairwise-differing families, and the non-conjugacy criterion."""

import random
from fractions import Fraction
from math import lcm

import pytest

from planeaut import (CERTIFICATE, CoeffSequence, CycNum, DomainMismatchError,
                      RootOfUnity, SATISFIABLE, SparsePoly, TriangularAffine, compose, differ_infinitely,
                      necessary_condition, omega0_family,
                      verify_subgroup_conjugator)
from planeaut.conjugacy import MAX_FAMILY, MAX_K0
from planeaut.prufer import conj_closed_form

from conftest import random_cycnum, random_prefix, random_root, random_sequence


def brute_differ(lam, mu):
    """Independent oracle: scan three lcm-periods past both prefixes."""
    start = max(len(lam.prefix), len(mu.prefix))
    window = 3 * lcm(lam.period, mu.period)
    return any(lam.coeff(start + o) != mu.coeff(start + o) for o in range(window))


SUPPORTS = "supports disagree on a periodic index set"
RATIOS = "eventual ratios b_k/a_k are not constant"


def check_against_scan(a, b, k0):
    """Oracle for necessary_condition: scan three joint periods past both
    prefixes for support mismatches and common-support ratios.  Returns the
    certificate's reason, or SATISFIABLE."""
    report = necessary_condition(a, b, k0)
    if k0 is None:
        k0 = max(len(a.prefix), len(b.prefix))
    join = max(k0, len(a.prefix), len(b.prefix))
    period = lcm(a.period, b.period)
    window = range(k0, join + 3 * period)
    mismatch = [k for k in window if bool(a.coeff(k)) != bool(b.coeff(k))]
    common = [k for k in window if k >= join and a.coeff(k) and b.coeff(k)]
    late = sorted({(k - join) % period for k in mismatch if k >= join})
    ratios = {b.coeff(k) / a.coeff(k) for k in common}
    if late or len(ratios) > 1:
        offsets = late or sorted({(k - join) % period for k in common})
        assert report.verdict == CERTIFICATE
        assert report.reason == (SUPPORTS if late else RATIOS)
        assert (report.preamble, report.period, report.offsets) == (join, period, offsets)
        return report.reason
    assert report.verdict == SATISFIABLE
    # every mismatch left is finite, and the witness starts past the last one
    assert report.effective_from >= k0
    assert all(k < report.effective_from for k in mismatch)
    for k in range(report.effective_from, join + 3 * period):
        if a.coeff(k) or b.coeff(k):
            assert (a.coeff(k) * report.beta ** (a.prime ** k + 1)
                    == report.gamma * b.coeff(k))
    return SATISFIABLE


def random_binary(rng):
    prefix = [rng.randint(0, 1) for _ in range(rng.randint(0, 5))]
    tail = [rng.randint(0, 1) for _ in range(rng.randint(1, 6))]
    return CoeffSequence(2, prefix, tail)


class TestDifferInfinitely:
    def test_equal_sequences(self):
        ones = CoeffSequence(2, [], [1])
        assert not differ_infinitely(ones, ones)

    def test_alternating_vs_ones(self):
        ones = CoeffSequence(2, [], [1])
        alt = CoeffSequence(2, [], [1, 0])
        assert differ_infinitely(ones, alt)

    def test_finite_flips_are_equivalent(self):
        prefix, tail = [1, 1, 1, 0, 1, 0, 1, 1], [1, 0, 1]
        flipped = list(prefix)
        for i in range(3, 8):
            flipped[i] ^= 1
        lam, mu = CoeffSequence(2, prefix, tail), CoeffSequence(2, flipped, tail)
        assert not differ_infinitely(lam, mu)

    def test_matches_brute_force(self):
        rng = random.Random(97)
        for _ in range(300):
            lam, mu = random_binary(rng), random_binary(rng)
            assert differ_infinitely(lam, mu) == brute_differ(lam, mu)

    def test_coeff_sequences_agree_with_certificate_and_brute_force(self):
        # the support of a coefficient sequence is its bit pattern
        def support(s):
            return CoeffSequence(2, [int(bool(c)) for c in s.prefix],
                                 [int(bool(c)) for c in s.tail])

        rng = random.Random(107)
        verdicts, outcomes = set(), set()
        for _ in range(200):
            p = rng.choice([2, 3])
            a, b = random_sequence(rng, p), random_sequence(rng, p)
            certified = (necessary_condition(a, b).reason
                         == "supports disagree on a periodic index set")
            assert differ_infinitely(a, b) == certified
            assert certified == brute_differ(support(a), support(b))
            verdicts.add(certified)
            past = max(len(a.prefix), len(b.prefix)) + rng.randint(1, 4)
            for k0 in (None, 0, past):
                outcomes.add(check_against_scan(a, b, k0))
        assert verdicts == {True, False}
        assert outcomes == {SUPPORTS, RATIOS, SATISFIABLE}

    def test_symmetry(self):
        rng = random.Random(101)
        for _ in range(100):
            lam, mu = random_binary(rng), random_binary(rng)
            assert differ_infinitely(lam, mu) == differ_infinitely(mu, lam)


class TestOmega0Family:
    def test_count_two(self):
        fam = omega0_family(2)
        assert [s.period for s in fam] == [2, 3]
        assert differ_infinitely(fam[0], fam[1])

    def test_count_five_all_pairs(self):
        fam = omega0_family(5)
        for i in range(5):
            for j in range(i + 1, 5):
                assert differ_infinitely(fam[i], fam[j])

    def test_count_one_rejected(self):
        with pytest.raises(ValueError):
            omega0_family(1)

    def test_count_bounded(self):
        assert len(omega0_family(MAX_FAMILY)) == MAX_FAMILY
        with pytest.raises(ValueError, match=f"at most {MAX_FAMILY}"):
            omega0_family(MAX_FAMILY + 1)


def seq_from_bits(p, bits):
    return CoeffSequence(p, bits.prefix, list(bits.tail))


class TestNecessaryCondition:
    def test_reflexive(self):
        rng = random.Random(103)
        for p in (2, 3):
            prefix = [random_cycnum(rng, p, max_level=1) for _ in range(3)]
            a = CoeffSequence(p, prefix, [1])
            report = necessary_condition(a, a, 0)
            assert report.verdict == SATISFIABLE
            assert report.beta == 1 and report.gamma == 1
            assert report.effective_from == 0

    def test_support_mismatch_certificate(self):
        ones = CoeffSequence(2, [], [1])
        odd_zeroed = CoeffSequence(2, [], [1, 0])
        report = necessary_condition(ones, odd_zeroed, 0)
        assert report.verdict == CERTIFICATE
        assert report.offsets == [1]
        assert report.period == 2

    def test_scaled_pair_satisfiable(self):
        # b_k = 2^(p^k + 1) * a_k, realized on finite supports
        a = CoeffSequence(2, [1, 1, 1])
        b = CoeffSequence(2, [2 ** (2 ** k + 1) for k in range(3)])
        report = necessary_condition(a, b, 0)
        assert report.verdict == SATISFIABLE
        assert report.beta == 2
        assert report.gamma == 1
        assert report.effective_from == 0

    def test_gamma_corrected_condition(self):
        # b_k = beta^(p^k+1)/gamma * a_k with gamma = 1/3
        beta, gamma = Fraction(2), Fraction(1, 3)
        a = CoeffSequence(2, [1, 1, 5])
        b = CoeffSequence(2, [a.coeff(k).as_fraction() * beta ** (2 ** k + 1) / gamma
                              for k in range(3)])
        report = necessary_condition(a, b, 0)
        assert report.verdict == SATISFIABLE
        assert report.beta == 2
        assert report.gamma == gamma
        # the witnessed scalars are exactly the scaling conjugator that works
        theta = TriangularAffine.scaling(gamma, beta)
        assert verify_subgroup_conjugator(a, b, theta, 3)

    def test_scaling_invariance(self):
        a = CoeffSequence(3, [1, 2], [1])
        b = CoeffSequence(3, [1, 2], [1])
        scaled = CoeffSequence(3, [5, 10], [5])
        assert necessary_condition(a, b, 0).verdict == SATISFIABLE
        report = necessary_condition(a, scaled, 0)
        assert report.verdict == SATISFIABLE
        assert report.gamma == Fraction(1, 5)

    def test_omega0_pairs_certified(self):
        fam = omega0_family(4)
        for i in range(4):
            for j in range(i + 1, 4):
                report = necessary_condition(seq_from_bits(2, fam[i]),
                                             seq_from_bits(2, fam[j]), 0)
                assert report.verdict == CERTIFICATE

    def test_nonconstant_ratio_certificate(self):
        a = CoeffSequence(2, [], [1, 2])
        b = CoeffSequence(2, [], [2, 1])
        report = necessary_condition(a, b, 0)
        assert report.verdict == CERTIFICATE
        assert report.offsets == [0, 1]

    def test_root_of_unity_witness(self):
        # b_k = zeta4^(p^k+1) a_k at p = 2: needs a genuinely complex beta
        z4 = CycNum.zeta(2, 2)
        a = CoeffSequence(2, [1, 1, 1])
        b = CoeffSequence(2, [z4 ** (2 ** k + 1) for k in range(3)])
        report = necessary_condition(a, b, 0)
        assert report.verdict == SATISFIABLE
        assert report.beta in (z4, -z4, z4.inverse(), -z4.inverse())

    def test_rejected_candidate_moves_start_past_anchor(self):
        # from k=0 the anchors force beta = 2, which fails verification at
        # k=2; from k=1 the anchor ratio 3/2 has no rational square root;
        # from k=2 the one common index fixes gamma alone
        a = CoeffSequence(2, [1, 1, 1])
        b = CoeffSequence(2, [1, 2, 3])
        report = necessary_condition(a, b, 0)
        assert report.verdict == SATISFIABLE
        assert report.beta == 1
        assert report.gamma == Fraction(1, 3)
        assert report.effective_from == 2

    def test_non_unit_scale_skipped_on_infinite_support(self):
        # from k=0 the anchors force beta = 2, a non-unit scale that the
        # infinite common support rules out; from k=1 the ratio is constant
        a = CoeffSequence(2, [1, 1], [1])
        b = CoeffSequence(2, [1, 2], [2])
        report = necessary_condition(a, b, 0)
        assert report.verdict == SATISFIABLE
        assert report.gamma == Fraction(1, 2)
        assert report.effective_from == 1

    def test_early_mismatch_raises_effective_start(self):
        a = CoeffSequence(2, [1, 0])
        b = CoeffSequence(2, [0, 1])
        report = necessary_condition(a, b, 0)
        assert report.verdict == SATISFIABLE
        assert report.effective_from == 2

    def test_default_k0_is_end_of_prefixes(self):
        a = CoeffSequence(2, [1, 0])
        b = CoeffSequence(2, [0, 1])
        assert necessary_condition(a, b).effective_from == 2

    def test_k0_bounded(self):
        a = CoeffSequence(2, [], [1])
        assert necessary_condition(a, a, 0).satisfiable
        with pytest.raises(ValueError, match=f"at most {MAX_K0}"):
            necessary_condition(a, a, MAX_K0 + 1)

    def test_witness_holds_on_constructed_pairs(self):
        # b_k = a_k beta^(p^k+1) / gamma; leading zeros push the anchor index
        # k* up to 5, so the root search kernel has up to p^5 elements
        rng = random.Random(131)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            root = random_root(rng, p, max_level=2)
            lead = rng.randint(0, 5)
            length = rng.randint(max(root.level, lead, 1), 5)
            prefix = [CycNum.zero()] * lead + [
                random_cycnum(rng, p, max_level=1, nonzero=k == lead)
                for k in range(lead, length)]
            tail = None
            scale = rng.choice([Fraction(1), Fraction(-1), Fraction(2),
                                Fraction(-1, 2)])
            if rng.random() < 0.5:
                tail = [random_cycnum(rng, p, max_level=1, nonzero=True)
                        for _ in range(rng.randint(1, 2))]
                scale = Fraction(1 if scale > 0 else -1)   # keeps b periodic
            beta = CycNum.rational(scale) * root.to_field()
            gamma = random_cycnum(rng, p, max_level=1, nonzero=True)

            def image(c, k):
                return c * beta ** (p ** k + 1) / gamma

            # beta^(p^k+1) is constant from k = length on, so the tail maps as one
            b_tail = None if tail is None else [image(c, length) for c in tail]
            a = CoeffSequence(p, prefix, tail)
            b = CoeffSequence(p, [image(c, k) for k, c in enumerate(prefix)], b_tail)
            report = necessary_condition(a, b, 0)
            assert report.verdict == SATISFIABLE and report.effective_from == 0
            join, period = a.joint_region(b, 0)
            stabilized = max(join, report.beta.level, 1)
            for k in range(stabilized + period):
                assert (a.coeff(k) * report.beta ** (p ** k + 1)
                        == report.gamma * b.coeff(k))

    def test_mixed_primes_rejected(self):
        with pytest.raises(DomainMismatchError):
            necessary_condition(CoeffSequence(2, [1]), CoeffSequence(3, [1]), 0)

    def test_lone_common_index_per_period(self):
        # from k=0 the anchors 0 and 2 need beta^8 = 4, which has no rational
        # root; from k=1 the one common index per period, k = 2 mod 3, fixes
        # gamma with beta = 1
        a = CoeffSequence(3, [2], [0, 5, 0])
        b = CoeffSequence(3, [1], [0, 10, 0])
        report = necessary_condition(a, b, 0)
        assert report.verdict == SATISFIABLE
        assert report.beta == 1 and report.gamma == Fraction(1, 2)
        assert report.effective_from == 1

    def test_one_common_index_per_period_agrees_with_scan(self):
        # the anchors k* and k* + period that a longer window would add have
        # ratio 1, so one joint period decides as three do
        rng = random.Random(137)
        outcomes = set()
        for _ in range(150):
            p = rng.choice([2, 3])
            period = rng.randint(1, 4)
            offset = rng.randrange(period)

            def sequence():
                # nonzero past the prefix exactly at the k = offset mod period
                prefix = random_prefix(rng, rng.randint(0, 4))
                tail = [random_cycnum(rng, p, max_level=1, nonzero=True)
                        if (len(prefix) + j) % period == offset else 0
                        for j in range(period)]
                return CoeffSequence(p, prefix, tail)

            a, b = sequence(), sequence()
            for k0 in (None, 0, rng.randint(0, 6)):
                outcomes.add(check_against_scan(a, b, k0))
        assert outcomes == {SATISFIABLE}


class TestVerifyConjugator:
    def test_identity_on_equal_sequences(self):
        a = CoeffSequence(2, [1, 1], [1])
        assert verify_subgroup_conjugator(a, a, TriangularAffine.identity(), 3)

    def test_scaling_orientation(self):
        a = CoeffSequence(2, [1, 1])
        b = CoeffSequence(2, [2 ** (2 ** k + 1) for k in range(2)])
        good = TriangularAffine.scaling(1, 2)
        bad = TriangularAffine.scaling(1, Fraction(1, 2))
        assert verify_subgroup_conjugator(a, b, good, 2)
        assert not verify_subgroup_conjugator(a, b, bad, 2)

    def test_distinct_supports_fail_identity(self):
        a = CoeffSequence(2, [1, 0])
        b = CoeffSequence(2, [0, 1])
        assert not verify_subgroup_conjugator(a, b, TriangularAffine.identity(), 1)

    def test_soundness_link(self):
        # every verified conjugator pair also satisfies the scalar condition
        rng = random.Random(107)
        for _ in range(10):
            p = rng.choice([2, 3])
            beta = rng.choice([Fraction(2), Fraction(1, 2), Fraction(-3)])
            prefix = [rng.choice([1, 2, Fraction(1, 2)]) for _ in range(3)]
            a = CoeffSequence(p, prefix)
            b = CoeffSequence(p, [Fraction(prefix[k]) * beta ** (p ** k + 1)
                                  for k in range(3)])
            theta = TriangularAffine.scaling(1, beta)
            assert verify_subgroup_conjugator(a, b, theta, 3)
            report = necessary_condition(a, b, 0)
            assert report.verdict == SATISFIABLE
            assert report.beta == beta

    def test_mixed_primes_rejected(self):
        with pytest.raises(DomainMismatchError, match="mixed primes 2 and 3"):
            verify_subgroup_conjugator(CoeffSequence(2, [1]), CoeffSequence(3, [1]),
                                       TriangularAffine.identity(), 1)

    def test_certificate_pairs_defeat_random_conjugators(self):
        rng = random.Random(109)
        fam = omega0_family(3)
        a = seq_from_bits(2, fam[0])
        b = seq_from_bits(2, fam[1])
        assert necessary_condition(a, b, 0).verdict == CERTIFICATE
        pool = [CycNum.one(), CycNum.rational(-1), CycNum.rational(2),
                CycNum.zeta(2, 2), CycNum.rational(Fraction(1, 2))]
        for _ in range(60):
            g = SparsePoly({(0, d): rng.choice(pool + [CycNum.zero()])
                            for d in range(rng.randint(0, 3))})
            theta = TriangularAffine(
                SparsePoly.x1() * rng.choice(pool) + g,
                SparsePoly.x2() * rng.choice(pool) + rng.choice(pool + [CycNum.zero()]))
            assert not verify_subgroup_conjugator(a, b, theta, 3)

    def test_answers_at_once_for_any_level(self):
        # beta0 != 0 fails before any level is read, zero entries leave beta = 2
        # unpowered, and two periods past the prefixes decide every level
        ones = CoeffSequence(2, [], [1])
        shifted = TriangularAffine(SparsePoly.x1(), SparsePoly.x2() + 1)
        assert not verify_subgroup_conjugator(ones, ones, shifted, 10)
        zeros = CoeffSequence(2, [0] * 40)
        doubling = TriangularAffine.scaling(1, 2)
        assert verify_subgroup_conjugator(zeros, zeros, doubling, 40)
        one = CoeffSequence(2, [1])
        assert verify_subgroup_conjugator(one, one, TriangularAffine.identity(), 10 ** 18)

    def test_matches_composition_loop(self):
        rng = random.Random(113)
        verdicts = set()
        for i in range(330):
            p, levels = (2, 3, 5)[i % 3], 1 + (i // 3) % 4
            a, b, theta = (related_case if i % 2 else unrelated_case)(rng, p, levels)
            kind = PERTURBATIONS[(i // 2) % 6]
            for theta in (theta, perturbed(rng, theta, p, levels, kind)):
                expected = outcome(composition_loop, a, b, theta, levels)
                assert outcome(verify_subgroup_conjugator, a, b, theta, levels) == expected, \
                    (i, a, b, theta, levels)
                verdicts.add(expected)
        assert verdicts == {True, False}


def composition_loop(a, b, theta, levels):
    """The verifier as brute force: conj_a(alpha) * theta against
    theta * conj_b(alpha) for a primitive root alpha of each level 1..levels."""
    if a.prime != b.prime:
        raise DomainMismatchError(f"mixed primes {a.prime} and {b.prime}")
    if levels < 1:
        raise ValueError("levels must be at least 1")
    for n in range(1, levels + 1):
        alpha = RootOfUnity(a.prime, n, 1)
        if (compose(conj_closed_form(a, alpha), theta)
                != compose(theta, conj_closed_form(b, alpha))):
            return False
    return True


def outcome(check, *args):
    """The verdict, or the type of the exception raised."""
    try:
        return check(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def shift_terms(a, b, gamma, beta, p, levels) -> SparsePoly:
    """sum over k < levels of (gamma*b_k - a_k*beta^(p^k+1)) x2^(p^k+1)."""
    return SparsePoly({(0, p ** k + 1):
                       gamma * b.coeff(k) - a.coeff(k) * beta ** (p ** k + 1)
                       for k in range(levels)})


def related_case(rng, p, levels):
    """(a, b, theta) that intertwine levels 1..levels: b_k = a_k beta^(p^k+1)/gamma
    at most indices (every tail index when beta is a signed root), and g
    from the identity."""
    a = random_sequence(rng, p)
    scale = rng.choice([1, 1, -1, 2])
    root = random_root(rng, p, max_level=2)
    beta = CycNum.rational(scale) * root.to_field()
    gamma = random_cycnum(rng, p, max_level=2, nonzero=True)

    def matched(k):
        return a.coeff(k) * beta ** (p ** k + 1) / gamma

    start = max(len(a.prefix), root.level, 1)
    prefix = [matched(k) if rng.random() < 0.7 else random_cycnum(rng, p, max_level=2)
              for k in range(start)]
    tail = ([matched(k) for k in range(start, start + a.period)] if abs(scale) == 1
            else None)
    b = CoeffSequence(p, prefix, tail)
    g = shift_terms(a, b, gamma, beta, p, levels)
    return a, b, TriangularAffine(SparsePoly.x1() * gamma + g, SparsePoly.x2() * beta)


def unrelated_case(rng, p, levels):
    """(a, b, theta) with random scalars and g, or with a = b of no prefix,
    g from the identity below a cut and gamma = beta^(p^cut+1): the matching
    conditions then hold below the cut and at k >= cut exactly where
    beta^(p^k+1) = beta^(p^cut+1), so a failure may come late."""
    if rng.random() < 0.5:
        a, b = random_sequence(rng, p), random_sequence(rng, p)
        gamma = random_cycnum(rng, p, max_level=2, nonzero=True)
        beta = random_cycnum(rng, p, max_level=2, max_terms=1, nonzero=True)
        degrees = [rng.randint(1, p ** levels + 2) for _ in range(rng.randint(0, 3))]
        g = SparsePoly({(0, d): random_cycnum(rng, p, max_level=2) for d in degrees})
    else:
        a = b = CoeffSequence(p, [], random_prefix(rng, rng.randint(1, 2)))
        beta = random_root(rng, p).to_field()
        cut = rng.randint(0, levels)
        gamma = beta ** (p ** cut + 1)
        g = shift_terms(a, b, gamma, beta, p, cut)
    return a, b, TriangularAffine(SparsePoly.x1() * gamma + g, SparsePoly.x2() * beta)


PERTURBATIONS = ("x2", "free", "constant", "shift", "other", "beta0")


def perturbed(rng, theta, p, levels, kind):
    """theta with one term added: c*x2 or c*x2^d with p^levels | d - 1, which
    the identity leaves free; a constant; c*x2^(p^k+1) for some k < levels;
    c*x2^d with d - 1 = (p+1)*p^k, k < levels, which must vanish; or c added
    to beta*x2."""
    c = random_cycnum(rng, p, max_level=2, nonzero=True)
    if kind == "beta0":
        return TriangularAffine(theta.f1, theta.f2 + c)
    degree = {"x2": 1, "free": 1 + rng.choice([1, 2, p]) * p ** levels, "constant": 0,
              "shift": p ** rng.randrange(levels) + 1,
              "other": (p + 1) * p ** rng.randrange(levels) + 1}[kind]
    return TriangularAffine(theta.f1 + SparsePoly.monomial(0, degree, c), theta.f2)

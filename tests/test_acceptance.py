"""Acceptance suite: one test per criterion, exact equality throughout.

Each criterion prints a PASS/FAIL line (visible with pytest -s); a failing
assertion also fails the test itself.
"""

import functools
import random
from fractions import Fraction
from math import lcm

from planeaut import (CERTIFICATE, CoeffSequence,
                      RootOfUnity, SATISFIABLE, TriangularAffine,
                      compose, conj_closed_form, diag, differ_infinitely,
                      endo_order, conjugate,
                      minimal_linearizer_degree, necessary_condition,
                      omega0_family, solve_linearization,
                      verify_subgroup_conjugator)
from planeaut.cli import main
from planeaut.prufer import exponent_of, series_truncation

from conftest import COEFF_POOL, NONZERO_POOL, random_cycnum, random_poly


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")
        return wrapper
    return decorate


def brute_conjugate(seq, alpha, truncation):
    theta = series_truncation(seq, truncation)
    return conjugate(diag(alpha), theta)


@criterion(1, "closed-form conjugate equals brute-force conjugation on the full grid")
def test_c1_conjugation_formula_oracle():
    rng = random.Random(2024)
    for p in (2, 3, 5):
        prefixes = [[rng.choice(COEFF_POOL) for _ in range(4)] for _ in range(50)]
        for prefix in prefixes:
            seq = CoeffSequence(p, prefix)
            theta = series_truncation(seq, 3)
            theta_inv = theta.inverse()
            for j in range(p ** 3):
                alpha = RootOfUnity(p, 3, j)
                brute = compose(compose(theta_inv, diag(alpha)), theta)
                assert conj_closed_form(seq, alpha) == brute


@criterion(2, "the map alpha -> conjugate is a homomorphism and order-preserving (p=2)")
def test_c2_prufer_embedding():
    seq = CoeffSequence(2, [1, Fraction(1, 2), 3], [1])
    generators = [RootOfUnity(2, n, j)
                  for n in (1, 2, 3)
                  for j in range(1, 2 ** n, 2)]
    for alpha in generators:
        element = conj_closed_form(seq, alpha)
        assert endo_order(element, alpha.order) == alpha.order
        for beta in generators:
            lhs = conj_closed_form(seq, alpha * beta)
            rhs = compose(conj_closed_form(seq, alpha), conj_closed_form(seq, beta))
            assert lhs == rhs


@criterion(3, "coefficients on x2^(p^k+1) vanish for k >= level even on nonzero tails")
def test_c3_vanishing_membership():
    rng = random.Random(31337)
    cases = 0
    while cases < 20:
        p = rng.choice([2, 3, 5])
        level = rng.randint(1, 3 if p == 2 else 2)
        prefix = [rng.choice(COEFF_POOL) for _ in range(rng.randint(0, 3))]
        tail = [rng.choice(NONZERO_POOL) for _ in range(rng.randint(1, 3))]
        seq = CoeffSequence(p, prefix, tail)
        alpha = RootOfUnity(p, level, rng.choice(
            [j for j in range(1, p ** level) if j % p]))
        closed = conj_closed_form(seq, alpha)
        top = level + 2
        for k in range(level, top + 1):
            assert closed.f1.coefficient(0, exponent_of(p, k)).is_zero
        assert closed.f1.degree <= p ** (level - 1) + 1
        assert brute_conjugate(seq, alpha, top) == closed
        cases += 1


@criterion(4, "minimal linearizer degree grows as 2, 3, 5, 9 for p=2 levels 1..4")
def test_c4_degree_growth():
    seq = CoeffSequence(2, [1, 1, 1, 1])
    observed = [minimal_linearizer_degree(seq, RootOfUnity(2, n, 1), 12)
                for n in (1, 2, 3, 4)]
    assert observed == [2, 3, 5, 9]


@criterion(5, "every returned linearizer diagonalizes its target exactly (100 round trips)")
def test_c5_linearizer_soundness():
    rng = random.Random(555)
    done = 0
    while done < 100:
        p = rng.choice([2, 3, 5])
        max_level = 3 if p == 2 else 2
        level = rng.randint(0, max_level)
        exps = [j for j in range(1, p ** level) if j % p] or [0]
        alpha = RootOfUnity(p, level, rng.choice(exps))
        prefix = [rng.choice(COEFF_POOL) for _ in range(rng.randint(0, 4))]
        tail = [rng.choice(COEFF_POOL) for _ in range(2)] if rng.random() < 0.5 else None
        seq = CoeffSequence(p, prefix, tail)
        target = conj_closed_form(seq, alpha)
        bound = max(int(target.f1.degree), 1)
        result = solve_linearization(target, bound)
        assert result.found
        assert conjugate(target, result.theta) == result.h
        done += 1


@criterion(6, "omega0 pairs certified non-conjugate; scaled pairs satisfiable and verified")
def test_c6_proposition_two_shadow():
    family = omega0_family(5)
    for i in range(5):
        for j in range(i + 1, 5):
            report = necessary_condition(family[i], family[j], 0)
            assert report.verdict == CERTIFICATE

    beta, gamma = Fraction(2), Fraction(1)
    for p in (2, 3):
        prefix = [1, Fraction(1, 2), 3]
        a = CoeffSequence(p, prefix)
        b = CoeffSequence(p, [Fraction(c) * beta ** (p ** k + 1) / gamma
                              for k, c in enumerate(prefix)])
        report = necessary_condition(a, b, 0)
        assert report.verdict == SATISFIABLE
        assert report.beta == beta
        assert report.gamma == gamma
        theta = TriangularAffine.scaling(1, beta)
        assert verify_subgroup_conjugator(a, b, theta, 3)


@criterion(7, "differ_infinitely agrees with brute force on 200 random pairs")
def test_c7_lemma_comparator():
    rng = random.Random(777)

    def brute(lam, mu):
        start = max(len(lam.prefix), len(mu.prefix))
        window = 3 * lcm(lam.period, mu.period)
        return any(lam.coeff(start + o) != mu.coeff(start + o) for o in range(window))

    for _ in range(200):
        lam = CoeffSequence(2, [rng.randint(0, 1) for _ in range(rng.randint(0, 6))],
                            [rng.randint(0, 1) for _ in range(rng.randint(1, 6))])
        mu = CoeffSequence(2, [rng.randint(0, 1) for _ in range(rng.randint(0, 6))],
                           [rng.randint(0, 1) for _ in range(rng.randint(1, 6))])
        assert differ_infinitely(lam, mu) == brute(lam, mu)

    for _ in range(50):
        tail = [rng.randint(0, 1) for _ in range(rng.randint(1, 5))]
        prefix = [rng.randint(0, 1) for _ in range(rng.randint(1, 8))]
        lam = CoeffSequence(2, prefix, tail)
        flipped = list(prefix)
        for i in rng.sample(range(len(prefix)), rng.randint(1, len(prefix))):
            flipped[i] ^= 1
        mu = CoeffSequence(2, flipped, tail)
        assert not differ_infinitely(lam, mu)


@criterion(8, "field and ring law suites pass 1000+ randomized exact checks each")
def test_c8_algebraic_laws():
    rng = random.Random(888)
    field_cases = 0
    for p in (2, 3, 5):
        for _ in range(350):
            u = random_cycnum(rng, p)
            v = random_cycnum(rng, p)
            w = random_cycnum(rng, p)
            assert u + v == v + u
            assert u * v == v * u
            assert (u + v) + w == u + (v + w)
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert u + (-u) == 0
            if not v.is_zero:
                assert v * v.inverse() == 1
            field_cases += 1
    assert field_cases >= 1000

    ring_cases = 0
    for _ in range(1000):
        p = rng.choice([2, 3])
        f = random_poly(rng, p=p, max_terms=8, max_degree=12, max_level=1)
        g = random_poly(rng, p=p, max_terms=8, max_degree=12, max_level=1)
        h = random_poly(rng, p=p, max_terms=8, max_degree=12, max_level=1)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        ring_cases += 1
    assert ring_cases >= 1000


@criterion(9, "CLI golden transcripts reproduce byte-identical reports and exit codes")
def test_c9_cli_goldens(capsys):
    code = main(["verify-formula", "--p", "2", "--prefix", "1,1",
                 "--alpha", "1/2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "OK: formula matches composition\n"

    code = main(["linearize", "--target", "(-x1 - 2*x2^2, -x2)",
                 "--max-degree", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ("LINEARIZED\n"
                   "theta = (x1 + -x2^2, x2)\n"
                   "h = (-x1, -x2)\n")

    code = main(["nonconj-check", "--p", "2", "--tail", "1", "--tail", "1,0"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == ("NON-CONJUGATE CERTIFICATE\n"
                   "failing indices: preamble=0, period=2, offsets=[1]\n"
                   "reason: supports disagree on a periodic index set\n")

"""Sparse bivariate polynomial arithmetic and substitution."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planeaut import CycNum, DomainMismatchError, NEG_INF, SparsePoly, compose
from planeaut.parsing import parse_endo

from conftest import random_cycnum, random_poly

x1 = SparsePoly.x1
x2 = SparsePoly.x2


def z(p, n, e=1):
    return CycNum.zeta(p, n, e)


class TestAddition:
    def test_cancellation(self):
        f = x1() + x2() ** 2
        assert f + (-x1()) == x2() ** 2

    def test_zero_identity(self):
        f = x1() * 3 - x2() ** 5
        assert f + SparsePoly.zero() == f

    def test_root_coefficients_cancel(self):
        f = x2() * z(2, 2)
        g = x2() * z(2, 2, 3)
        assert (f + g).is_zero

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sum_keeps_the_left_order_then_appends(self, sign):
        f = x1() * 2 + x2() + SparsePoly.constant(3)
        g = SparsePoly.constant(5) + x2() * -sign + x1() ** 2
        total = f + g if sign > 0 else f - g
        assert list(total._terms) == [(1, 0), (0, 0), (2, 0)]
        assert list(f._terms) == [(1, 0), (0, 1), (0, 0)]   # f is not changed

    @pytest.mark.parametrize("sign", [1, -1])
    def test_two_tower_sum_names_the_left_operands_first_pair(self, sign):
        # both shared monomials mix primes; the left operand's first is met
        # first, where the right operand's first would name 3 and 5
        f = x1() * z(5, 1) + x2() * z(3, 1)
        g = x2() * z(5, 1) + x1() * z(3, 1)
        for left, right in ((f, g), (g, f)):
            with pytest.raises(DomainMismatchError, match="mixed primes 5 and 3"):
                left + right if sign > 0 else left - right


class TestMultiplication:
    def test_monomials(self):
        assert x2() ** 2 * x2() ** 3 == x2() ** 5

    def test_one_identity(self):
        f = x1() ** 2 + x2() * 7
        assert f * SparsePoly.one() == f

    def test_binomial_square(self):
        f = x2() * 2 + 1
        assert f * f == x2() ** 2 * 4 + x2() * 4 + 1

    def test_degree_additivity(self):
        rng = random.Random(11)
        for _ in range(50):
            f = random_poly(rng, max_terms=4, max_degree=6)
            g = random_poly(rng, max_terms=4, max_degree=6)
            if f.is_zero or g.is_zero:
                assert (f * g).degree == NEG_INF
            else:
                assert (f * g).degree == f.degree + g.degree


class TestDegree:
    def test_examples(self):
        assert (x1() + x2() ** 2).degree == 2
        assert SparsePoly.zero().degree == NEG_INF
        assert SparsePoly.monomial(0, 3 ** 2 + 1).degree == 10

    def test_neg_inf_arithmetic(self):
        assert NEG_INF + 5 == NEG_INF


class TestCoefficientOf:
    def test_examples(self):
        f = x1() + x2() ** 2 * 2
        assert f.coefficient(0, 2) == 2
        assert SparsePoly.zero().coefficient(3, 1) == 0

    def test_conjugation_coefficient(self):
        # frozen from the p=2 closed-form conjugate (-x1 - 2*x2^2, -x2)
        f = -x1() - x2() ** 2 * 2
        assert f.coefficient(0, 2) == -2


def naive_substitute(f, s1, s2):
    """Oracle: the sum over the terms of f of c * s1^e1 * s2^e2, with + and *
    only (no powers, no cache)."""
    out = SparsePoly.zero()
    for (e1, e2), c in f.terms():
        part = SparsePoly.constant(c)
        for s, e in ((s1, e1), (s2, e2)):
            for _ in range(e):
                part = part * s
        out = out + part
    return out


def stores_no_zero(f):
    return all(not c.is_zero for _, c in f.terms())


class TestSubstitute:
    def test_diagonal(self):
        f = x1() + x2() ** 2
        s = x1() * -1
        t = x2() * -1
        assert f.substitute(s, t) == -x1() + x2() ** 2

    def test_projection(self):
        f = x1()
        s1 = x2() ** 3 + 1
        assert f.substitute(s1, x1() * 5) == s1

    def test_monomial_scaling(self):
        f = SparsePoly.monomial(0, 3)  # x2^(p+1) at p=2
        beta = CycNum.rational(2)
        assert f.substitute(x1(), x2() * beta) == SparsePoly.monomial(0, 3, 8)

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_naive_expansion(self, p):
        rng = random.Random(29 + p)
        for _ in range(25):
            f = random_poly(rng, p, max_terms=4, max_degree=5)
            # a constant term and pure x1 and pure x2 monomials
            f = (f + rng.randint(-3, 3) + x1() ** rng.randint(1, 4) * 2
                 - x2() ** rng.randint(1, 4))
            for s1, s2 in [
                    (random_poly(rng, p, max_terms=3, max_degree=3),
                     random_poly(rng, p, max_terms=3, max_degree=3)),
                    (SparsePoly.monomial(0, 2, z(p, 2)), x1() + 1),
                    (SparsePoly.zero(), x2() - x1())]:
                g = f.substitute(s1, s2)
                assert g == naive_substitute(f, s1, s2) and stores_no_zero(g)

    def test_cancels_to_zero(self):
        g = (x1() - x2()).substitute(x2(), x2())
        assert g.is_zero and g.degree == NEG_INF and len(g) == 0
        assert g == SparsePoly.zero() and stores_no_zero(g)

    def test_identity_substitution(self):
        rng = random.Random(13)
        for _ in range(30):
            f = random_poly(rng)
            assert f.substitute(x1(), x2()) == f

    def test_ring_homomorphism(self):
        rng = random.Random(17)
        for _ in range(25):
            f = random_poly(rng, max_terms=4, max_degree=5)
            g = random_poly(rng, max_terms=4, max_degree=5)
            s1 = random_poly(rng, max_terms=2, max_degree=3)
            s2 = random_poly(rng, max_terms=2, max_degree=3)
            assert (f + g).substitute(s1, s2) == f.substitute(s1, s2) + g.substitute(s1, s2)
            assert (f * g).substitute(s1, s2) == f.substitute(s1, s2) * g.substitute(s1, s2)

    def test_composition_associativity(self):
        rng = random.Random(19)
        for _ in range(15):
            f = random_poly(rng, max_terms=3, max_degree=4)
            s1 = random_poly(rng, max_terms=2, max_degree=2)
            s2 = random_poly(rng, max_terms=2, max_degree=2)
            t1 = random_poly(rng, max_terms=2, max_degree=2)
            t2 = random_poly(rng, max_terms=2, max_degree=2)
            stepwise = f.substitute(s1, s2).substitute(t1, t2)
            precomposed = f.substitute(s1.substitute(t1, t2), s2.substitute(t1, t2))
            assert stepwise == precomposed


class TestRingLaws:
    def test_axioms(self):
        rng = random.Random(29)
        for _ in range(40):
            f = random_poly(rng, max_terms=5, max_degree=8)
            g = random_poly(rng, max_terms=5, max_degree=8)
            h = random_poly(rng, max_terms=5, max_degree=8)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f - f).is_zero


def pairwise_add(f, g):
    """Reference: fold the terms of g into those of f one pair at a time."""
    out = dict(f._terms)
    for mono, c in g._terms.items():
        s = out.get(mono)
        s = c if s is None else s + c
        if s.is_zero:
            out.pop(mono, None)
        else:
            out[mono] = s
    return SparsePoly(out)


def pairwise_mul(f, g):
    """Reference: add each product of terms into its monomial as it comes."""
    out = {}
    for (a1, a2), c in f._terms.items():
        for (b1, b2), d in g._terms.items():
            mono = (a1 + b1, a2 + b2)
            s = out.get(mono)
            prod = c * d
            s = prod if s is None else s + prod
            if s.is_zero:
                out.pop(mono, None)
            else:
                out[mono] = s
    return SparsePoly(out)


def pairwise_substitute(f, s1, s2):
    """Reference: expand each term's power product by pairwise_mul alone and
    add its terms into one accumulator, one pair at a time."""
    acc = {}
    for (e1, e2), c in f._terms.items():
        part = SparsePoly.one()
        for factor in [s1] * e1 + [s2] * e2:
            part = pairwise_mul(part, factor)
        for mono, d in part._terms.items():
            s = acc.get(mono)
            acc[mono] = d * c if s is None else s + d * c
    return SparsePoly(acc)


@st.composite
def one_tower_operands(draw):
    """(f, g, s1, s2) over one p-tower, on few monomials so that terms meet.
    Coefficients mix levels 0-2 and denominators; g negates some of f's
    coefficients (the sum cancels to zero) or adds a rational to a negated
    one (the sum drops to level 0)."""
    rng = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from([2, 3, 5]))

    def poly(n_terms, degree):
        terms = {}
        for _ in range(n_terms):
            e1 = rng.randint(0, degree)
            terms[e1, rng.randint(0, degree - e1)] = random_cycnum(rng, p, max_level=2)
        return SparsePoly(terms)

    f, g = poly(rng.randint(0, 5), 3), poly(rng.randint(0, 3), 3)
    g_terms = dict(g.terms())
    for mono, c in f.terms():
        sum_at_mono = rng.choice([None, 0, random_cycnum(rng, p, max_level=0)])
        if sum_at_mono is not None:
            g_terms[mono] = sum_at_mono - c
    return f, SparsePoly(g_terms), poly(rng.randint(0, 3), 2), poly(rng.randint(0, 3), 2)


@settings(max_examples=80, deadline=None)
@given(one_tower_operands())
def test_one_sum_per_monomial_matches_pairwise_folds(operands):
    f, g, s1, s2 = operands
    # the cross terms of (f + g)(f - g) cancel, and so does all of
    # f(x1, x2) - f(x2, x1) at x1 = x2 = s2
    u, v = f + g, f - g
    swap_odd = f - f.substitute(x2(), x1())
    for got, want in [
            (u, pairwise_add(f, g)),
            (f * g, pairwise_mul(f, g)),
            (u * v, pairwise_mul(u, v)),
            (f.substitute(s1, s2), pairwise_substitute(f, s1, s2)),
            (swap_odd.substitute(s2, s2), pairwise_substitute(swap_odd, s2, s2))]:
        assert got == want and stores_no_zero(got)


def per_pair_collect(products):
    """Reference accumulator: one CycNum product per pair (c, d), then one
    CycNum.sum per monomial, as the ring did before it reduced each output
    coefficient once."""
    groups = {}
    for mono, c, d in products:
        groups.setdefault(mono, []).append(c * d)
    return SparsePoly({mono: CycNum.sum(cs) for mono, cs in groups.items()})


def per_pair_mul(f, g):
    return per_pair_collect(((a1 + b1, a2 + b2), c, d)
                            for (a1, a2), c in f.terms() for (b1, b2), d in g.terms())


def per_pair_pow(f, e):
    out = SparsePoly.one()
    for _ in range(e):
        out = per_pair_mul(out, f)
    return out


def per_pair_substitute(f, s1, s2):
    return per_pair_collect(
        (mono, d, c) for (e1, e2), c in f.terms()
        for mono, d in per_pair_mul(per_pair_pow(s1, e1), per_pair_pow(s2, e2)).terms())


# denominators that share factors and ones that do not
DENOMINATORS = [1, 2, 3, 4, 6, 9, 35, 1024, 1000003]


def ring_operands(seed):
    """(p, f, g, s1, s2) over one p-tower, p in {2, 3, 5, 7}, on few
    monomials so that products meet: coefficients of levels 0-3 (0-1 for
    p = 7) scaled by rationals over DENOMINATORS, or all rational."""
    rng = random.Random(seed)
    p = rng.choice((2, 3, 5, 7))
    top = 0 if rng.random() < 0.2 else 1 if p == 7 else 3

    def coeff():
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.choice(DENOMINATORS))
        return random_cycnum(rng, p, max_level=top, nonzero=True) * q

    def poly(n_terms, degree):
        terms = {}
        for _ in range(n_terms):
            e1 = rng.randint(0, degree)
            terms[e1, rng.randint(0, degree - e1)] = coeff()
        return SparsePoly(terms)

    return (p, poly(rng.randint(1, 5), 3), poly(rng.randint(1, 4), 3),
            poly(rng.randint(1, 3), 2), poly(rng.randint(1, 3), 2))


@pytest.mark.parametrize("seed", range(60))
def test_one_reduction_per_coefficient_matches_a_product_per_pair(seed):
    _, f, g, s1, s2 = ring_operands(seed)
    for got, want in [(f * g, per_pair_mul(f, g)),
                      (g * f, per_pair_mul(g, f)),
                      (f ** 3, per_pair_pow(f, 3)),
                      (f.substitute(s1, s2), per_pair_substitute(f, s1, s2)),
                      (f.substitute(s2, s2), per_pair_substitute(f, s2, s2))]:
        assert got == want and stores_no_zero(got)


@pytest.mark.parametrize("seed", range(12))
def test_two_towers_fail_in_both_accumulators(seed):
    # f gains an x1 term of another tower, which meets an irrational term of
    # g, and of s1 in the substitution, in one product
    p, f, g, s1, _ = ring_operands(seed)
    q = {2: 3, 3: 5, 5: 7, 7: 2}[p]
    f = SparsePoly({**dict(f.terms()), (1, 0): z(q, 2)})
    g = SparsePoly({**dict(g.terms()), (0, 0): z(p, 2)})
    s1 = SparsePoly({**dict(s1.terms()), (4, 0): z(p, 2)})
    for ours, reference in [(lambda: f * g, lambda: per_pair_mul(f, g)),
                            (lambda: g * f, lambda: per_pair_mul(g, f)),
                            (lambda: f.substitute(s1, x2()),
                             lambda: per_pair_substitute(f, s1, x2()))]:
        with pytest.raises(DomainMismatchError):
            ours()
        with pytest.raises(DomainMismatchError):
            reference()


def one_term_coeff(rng, p):
    """A nonzero coefficient of the p-tower: a root of any exponent, +-1, a
    rational, or a sparse value scaled by a rational."""
    top = 1 if p == 7 else 3
    n = rng.randint(1, top)
    return rng.choice([
        z(p, n, rng.randrange(p ** n)), CycNum.one(), -CycNum.one(),
        CycNum.rational(Fraction(rng.randint(1, 9), rng.choice(DENOMINATORS))),
        random_cycnum(rng, p, max_level=top, nonzero=True) * Fraction(-3, 7)])


def termwise_image(f, s1, s2):
    """Oracle for a substitution of monomials: each term c*x1^e1*x2^e2 goes to
    c1^e1 * c2^e2 * c (repeated field products, no powers) at the monomial
    e1*u + e2*v, added into what is there, so terms that meet are summed."""
    ((u1, u2), c1), = s1.terms()
    ((v1, v2), c2), = s2.terms()
    out = {}
    for (e1, e2), c in f.terms():
        d = CycNum.one()
        for factor in [c1] * e1 + [c2] * e2:
            d = d * factor
        mono = (e1 * u1 + e2 * v1, e1 * u2 + e2 * v2)
        out[mono] = out.get(mono, CycNum.zero()) + d * c
    return SparsePoly(out)


@pytest.mark.parametrize("seed", range(40))
def test_one_term_factor_matches_a_termwise_expansion(seed):
    p, f, g, _, _ = ring_operands(seed)
    rng = random.Random(2000 + seed)
    m = SparsePoly({(rng.randint(0, 3), rng.randint(0, 3)): one_term_coeff(rng, p)})
    for got, want in [(m * f, pairwise_mul(m, f)), (f * m, pairwise_mul(f, m)),
                      (g * m, pairwise_mul(g, m)), (m * m, pairwise_mul(m, m))]:
        assert got == want and stores_no_zero(got)


@pytest.mark.parametrize("seed", range(40))
def test_monomial_substitution_matches_a_termwise_image(seed):
    # maps with independent exponent vectors, where no two terms meet, and
    # the others, where some may, must all match the oracle
    p, f, g, _, _ = ring_operands(seed)
    rng = random.Random(3000 + seed)

    def monomial(e1, e2):
        return SparsePoly({(e1, e2): one_term_coeff(rng, p)})

    maps = [(monomial(rng.randint(0, 2), rng.randint(0, 2)),
             monomial(rng.randint(0, 2), rng.randint(0, 2))) for _ in range(4)]
    maps += [(monomial(1, 0), monomial(0, 1)), (monomial(0, 1), monomial(1, 0)),
             (monomial(1, 1), monomial(1, 1)), (monomial(0, 0), monomial(0, 1)),
             (monomial(2, 0), monomial(1, 0))]
    for s1, s2 in maps:
        for h in (f, g, f * g):
            got = h.substitute(s1, s2)
            assert got == termwise_image(h, s1, s2) and stores_no_zero(got)


def test_non_injective_monomial_map_adds_the_terms_that_meet():
    # x1 and x2 both go to x1*x2, so the two terms of x1 + x2 meet
    phi = compose(parse_endo("(x1 + x2, x2)"), parse_endo("(x1*x2, x1*x2)"))
    assert str(phi) == "(2*x1*x2, x1*x2)"


@pytest.mark.parametrize("first,second,primes", [
    # a substitution pairs the power's coefficient first
    ("(z(3)*x1, x2)", "(z(5)*x1, x2)", (5, 3)),
    # every product of scalar powers comes before any term's product
    ("(z(7)*x1 + x1*x2, x2)", "(z(3)*x1, z(5)*x2)", (3, 5)),
    ("(z(7)*x1, x2)", "(z(3)*x1, z(5)*x2)", (3, 7))])
def test_two_tower_substitution_names_the_primes_in_product_order(first, second, primes):
    with pytest.raises(DomainMismatchError, match="^mixed primes %d and %d$" % primes):
        compose(parse_endo(first), parse_endo(second))


def test_two_tower_one_term_factor_keeps_the_operand_order():
    f, g = x1() * z(3, 1), x2() * z(5, 1) + x1() * z(5, 2)
    with pytest.raises(DomainMismatchError, match="^mixed primes 3 and 5$"):
        f * g
    with pytest.raises(DomainMismatchError, match="^mixed primes 5 and 3$"):
        g * f


small_ints = st.integers(-4, 4)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), small_ints),
                max_size=5))
def test_construction_drops_zeros(triples):
    poly = SparsePoly({(e1, e2): CycNum.rational(c)
                       for e1, e2, c in triples})
    assert all(not c.is_zero for _, c in poly.terms())


@pytest.mark.parametrize("base", [x2() * 3, x1() + x2() ** 2, x1() * z(3, 1) - 1])
def test_pow_matches_repeated_product(base):
    product = SparsePoly.one()
    for e in range(7):
        assert base ** e == product
        product = product * base


def test_terms_follow_print_order():
    f = SparsePoly({(0, 2): 1, (1, 1): 2, (2, 0): 3, (0, 0): 4, (1, 0): 5})
    assert [m for m, _ in f.terms()] == [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)]
    assert str(f) == "4 + 5*x1 + 3*x1^2 + 2*x1*x2 + x2^2"


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        SparsePoly({(-1, 0): CycNum.one()})


def test_x2_profile():
    f = x2() ** 3 * 2 + 1
    assert f.x2_profile() == {3: CycNum.rational(2), 0: CycNum.one()}
    with pytest.raises(ValueError):
        (x1() + x2()).x2_profile()

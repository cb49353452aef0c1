"""Composition, inversion, conjugation, and order of plane endomorphisms."""

import itertools
import random
import re
from fractions import Fraction
from math import lcm

import pytest

from planeaut import (CycNum, DomainMismatchError, PlaneEndo, SparsePoly,
                      TriangularAffine, compose, conjugate, endo_order,
                      multiplicative_order, parse_endo)
from planeaut import endo

from conftest import COEFF_POOL, NONZERO_POOL, random_cycnum, random_poly

x1 = SparsePoly.x1
x2 = SparsePoly.x2


def random_parameters(rng, p=2, max_g_degree=4):
    """(gamma, g, beta, beta0) of a random triangular-affine map."""
    gamma = random_cycnum(rng, p, max_level=2, nonzero=True)
    beta = random_cycnum(rng, p, max_level=2, nonzero=True)
    beta0 = random_cycnum(rng, p, max_level=2)
    g = SparsePoly({(0, d): random_cycnum(rng, p, max_level=2)
                    for d in rng.sample(range(max_g_degree + 1), rng.randint(0, 3))})
    return gamma, g, beta, beta0


def count_dots(monkeypatch) -> list[int]:
    """Patch CycNum.dot, the kernel of every field sum and product, to count
    its calls; returns the one-item counter."""
    calls = [0]
    dot = CycNum.dot

    def counting(pairs):
        calls[0] += 1
        return dot(pairs)

    monkeypatch.setattr(CycNum, "dot", staticmethod(counting))
    return calls


def random_triangular(rng, p=2, max_g_degree=4):
    gamma, g, beta, beta0 = random_parameters(rng, p, max_g_degree)
    return TriangularAffine(x1() * gamma + g, x2() * beta + beta0)


class TestCompose:
    def test_substitution_example(self):
        phi = parse_endo("(x1 + x2^2, x2)")
        psi = parse_endo("(2*x1, x2)")
        assert compose(phi, psi) == parse_endo("(2*x1 + x2^2, x2)")

    def test_identity_neutral(self):
        psi = parse_endo("(x1 + 3*x2^4, -x2 + 1)")
        ident = PlaneEndo.identity()
        assert compose(psi, ident) == psi
        assert compose(ident, psi) == psi

    def test_order_two_element_squares_to_identity(self):
        psi = parse_endo("(-x1 - 2*x2^2, -x2)")
        assert compose(psi, psi) == PlaneEndo.identity()

    def test_associativity(self):
        rng = random.Random(41)
        for _ in range(20):
            maps = [PlaneEndo(random_poly(rng, max_terms=3, max_degree=2),
                              random_poly(rng, max_terms=3, max_degree=2))
                    for _ in range(3)]
            a, b, c = maps
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_operator_alias(self):
        phi = parse_endo("(x1 + x2^2, x2)")
        psi = parse_endo("(2*x1, x2)")
        assert phi * psi == compose(phi, psi)


class TestTriangularInverse:
    def test_unipotent_shift(self):
        theta = TriangularAffine.shift(x2() ** 2)
        assert theta.inverse() == parse_endo("(x1 - x2^2, x2)")

    def test_affine(self):
        theta = TriangularAffine(x1() * 2, x2() + 1)
        assert theta.inverse() == parse_endo("(x1/2, x2 - 1)")

    def test_two_term_shift_round_trip(self):
        theta = TriangularAffine.shift(x2() ** 2 + x2() ** 3)
        inv = theta.inverse()
        assert inv == parse_endo("(x1 - x2^2 - x2^3, x2)")
        assert compose(theta, inv) == PlaneEndo.identity()

    def test_randomized_two_sided_inverse(self):
        rng = random.Random(43)
        ident = PlaneEndo.identity()
        for _ in range(25):
            theta = random_triangular(rng)
            inv = theta.inverse()
            assert compose(theta, inv) == ident
            assert compose(inv, theta) == ident

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TriangularAffine(x1() * 0, x2())        # gamma = 0
        with pytest.raises(ValueError):
            TriangularAffine(x1() + x1() * x2(), x2())  # shift part involves x1


class TestTriangularIsPlaneEndo:
    def test_equals_plane_endo_of_same_map(self):
        theta = TriangularAffine(x1() * 2 + x2() ** 2, x2() * 3 + 1)
        same = parse_endo("(2*x1 + x2^2, 3*x2 + 1)")
        assert isinstance(theta, PlaneEndo)
        assert theta == same and same == theta
        assert theta != parse_endo("(2*x1 + x2^2, 3*x2)")
        assert repr(theta) == "TriangularAffine('(2*x1 + x2^2, 1 + 3*x2)')"
        assert repr(same) == "PlaneEndo('(2*x1 + x2^2, 1 + 3*x2)')"

    def test_randomized_components(self):
        rng = random.Random(61)
        for _ in range(20):
            theta = random_triangular(rng)
            for t in (theta, theta.inverse()):
                assert isinstance(t, PlaneEndo)
                assert t.f1 == x1() * t.gamma + t.g
                assert t.f2 == x2() * t.beta + t.beta0


class TestConjugate:
    def test_identity_fixed(self):
        theta = TriangularAffine.shift(x2() ** 3)
        assert conjugate(PlaneEndo.identity(), theta) == PlaneEndo.identity()

    def test_shift_conjugate_of_negation(self):
        # brute-force composition; matches the closed form for p=2, a0=1, alpha=-1
        psi = TriangularAffine.scaling(-1, -1)
        theta = TriangularAffine.shift(x2() ** 2)
        assert conjugate(psi, theta) == parse_endo("(-x1 - 2*x2^2, -x2)")

    def test_diagonal_maps_commute(self):
        alpha = CycNum.zeta(2, 2)
        psi = TriangularAffine.scaling(alpha, alpha)
        theta = TriangularAffine.scaling(3, Fraction(1, 2))
        assert conjugate(psi, theta) == psi

    def test_conjugation_is_homomorphism(self):
        rng = random.Random(47)
        for _ in range(15):
            psi1 = PlaneEndo(random_poly(rng, max_terms=2, max_degree=2),
                             random_poly(rng, max_terms=2, max_degree=2))
            psi2 = PlaneEndo(random_poly(rng, max_terms=2, max_degree=2),
                             random_poly(rng, max_terms=2, max_degree=2))
            theta = random_triangular(rng, max_g_degree=2)
            lhs = conjugate(compose(psi1, psi2), theta)
            rhs = compose(conjugate(psi1, theta), conjugate(psi2, theta))
            assert lhs == rhs


def brute_order(psi, max_order):
    """Smallest k <= max_order with psi^k the identity, by composing psi with
    itself k times: the oracle for the closed form."""
    ident, power = PlaneEndo.identity(), psi
    for k in range(1, max_order + 1):
        if power == ident:
            return k
        power = compose(power, psi)
    return None


def scalar_order(u, p):
    """Smallest t <= 2*p^3 with u^t = 1, else None: the order of every
    +-zeta_{p^n}^j with n <= 3 is in that range."""
    return next((t for t in range(1, 2 * p ** 3 + 1) if u ** t == 1), None)


def tower_element(rng, p):
    """c * zeta_{p^n}^j with n <= 3 and a small rational c."""
    n = rng.randint(0, 3)
    return CycNum.zeta(p, n, rng.randrange(p ** n)) * rng.choice(NONZERO_POOL)


def tower_scalar(rng, p):
    """+-zeta_{p^n}^j with n <= 3, or 2, 1/2 or 1 + zeta of infinite order."""
    if rng.random() < 0.8:
        n = rng.randint(0, 3)
        return CycNum.zeta(p, n, rng.randrange(p ** n)) * rng.choice((1, -1))
    return rng.choice((CycNum.rational(2), CycNum.rational(Fraction(1, 2)),
                       1 + CycNum.zeta(p, 2)))


def order_oracle_cases(seed, count):
    """(psi, max_order) for triangular-affine psi with scalars in one p-tower,
    p in {2, 3, 5}: random g and beta0, beta = 1 with beta0 != 0, and a
    resonant term x2^d with beta^d = gamma.  max_order is m - 1, m or m + 5
    for m = lcm(ord gamma, ord beta), or small when a scalar has no order."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((2, 3, 5))
        beta, beta0 = tower_scalar(rng, p), CycNum.zero()
        shape = rng.choice(("random", "random", "translation", "resonant"))
        if shape == "resonant":
            d = rng.randint(0, 4)
            gamma = beta ** d
            g = x2() ** d * tower_element(rng, p)
        else:
            gamma = tower_scalar(rng, p)
            g = SparsePoly({(0, d): tower_element(rng, p)
                            for d in rng.sample(range(4), rng.randint(0, 2))})
        if shape == "translation":
            beta, beta0 = CycNum.one(), tower_element(rng, p)
        elif rng.random() < 0.5:
            beta0 = tower_element(rng, p)
        psi = PlaneEndo(x1() * gamma + g, x2() * beta + beta0)
        orders = scalar_order(gamma, p), scalar_order(beta, p)
        if None in orders:
            yield psi, rng.choice((1, 4, 12))
        else:
            m = lcm(*orders)
            yield psi, max(1, m + rng.choice((-1, 0, 5)))


def map_degree(psi):
    """The larger total degree of the two components."""
    return max(psi.f1.degree, psi.f2.degree)


def finite_order_cases(seed, count):
    """(psi, max_order) for psi = w^-1 * D * w with w = t * swap: t is
    triangular with deg g = 2 and D is diagonal with roots of order at most 4
    in the 2- or the 3-tower.  max_order is the order minus one, the order,
    or 12."""
    rng = random.Random(seed)
    swap = parse_endo("(x2, x1)")
    roots = {2: [CycNum.zeta(2, n, j) for n in (0, 1, 2) for j in range(2 ** n)],
             3: [CycNum.zeta(3, 1, j) for j in range(3)]}
    for _ in range(count):
        p = rng.choice((2, 3))
        g = x2() ** 2 * rng.choice(NONZERO_POOL) + x2() * rng.choice(COEFF_POOL)
        t = TriangularAffine(x1() * rng.choice(NONZERO_POOL) + g,
                             x2() * rng.choice(NONZERO_POOL) + rng.choice(COEFF_POOL))
        d = TriangularAffine.scaling(rng.choice(roots[p]), rng.choice(roots[p]))
        psi = compose(compose(compose(swap, t.inverse()), d), compose(t, swap))
        order = brute_order(psi, 12)
        yield psi, rng.choice((order - 1, order, 12)) or 1


def squaring_order(psi, max_order):
    """The order as psi^m alone gave it, m = lcm(ord gamma, ord beta), formed
    by repeated squaring: the oracle for reading the order off the
    resonances."""
    t = TriangularAffine(psi.f1, psi.f2)
    orders = multiplicative_order(t.gamma), multiplicative_order(t.beta)
    if None in orders or (m := lcm(*orders)) > max_order:
        return None
    power = psi
    for bit in bin(m)[3:]:
        power = compose(power, power)
        if bit == "1":
            power = compose(power, psi)
    return m if power == PlaneEndo.identity() else None


def sympy_order(text, max_order):
    """The order of the map `text` over Q(zeta_N) = Q[t]/Phi_N(t), N the lcm
    of its z(k) moduli and z(k) = t^(N/k), in SymPy: the least divisor d of
    m = lcm(ord gamma, ord beta) with psi^d = (x1, x2), each power built by
    substitution with every coefficient reduced by Poly.rem, else None (also
    when m > max_order).  Scalars of two towers multiply freely in
    Q(zeta_N), so this decides maps the package's field cannot compose."""
    sympy = pytest.importorskip("sympy")
    t, v1, v2 = sympy.symbols("t x1 x2")
    N = lcm(1, *map(int, re.findall(r"z\((\d+)\)", text)))
    phi = sympy.Poly(sympy.cyclotomic_poly(N, t), t, domain="QQ")

    def reduce(expr):
        poly = sympy.Poly(sympy.expand(expr), v1, v2)
        return sum((sympy.Poly(c, t, domain="QQ").rem(phi).as_expr() * v1 ** i * v2 ** j
                    for (i, j), c in poly.terms()), sympy.Integer(0))

    def compose(a, b):
        return tuple(reduce(f.subs({v1: b[0], v2: b[1]}, simultaneous=True)) for f in a)

    def power(k):
        if k == 1:
            return psi
        half = power(k // 2)
        out = compose(half, half)
        return compose(out, psi) if k % 2 else out

    def root_order(c):
        # a root of unity of Q(zeta_N) has an order dividing lcm(2, N)
        value = sympy.Integer(1)
        for k in range(1, 2 * N + 1):
            value = reduce(value * c)
            if value == 1:
                return k
        return None

    source = re.sub(r"z\((\d+)\)", lambda hit: f"(t**{N // int(hit.group(1))})", text)
    psi = tuple(map(reduce, sympy.sympify(source.replace("^", "**"), locals={"t": t})))
    orders = (root_order(sympy.Poly(psi[0], v1, v2).coeff_monomial(v1)),
              root_order(sympy.Poly(psi[1], v1, v2).coeff_monomial(v2)))
    if None in orders or (m := lcm(*orders)) > max_order:
        return None
    return next((d for d in range(1, m + 1)
                 if m % d == 0 and power(d) == (v1, v2)), None)


def mixed_tower_maps(seed, count):
    """Map texts with gamma and beta roots of unity of two different towers
    among the moduli 3, 4 and 5 (gamma = z(a)^0 = 1 on every other map, so
    that d = 0 resonates), g of degree at most 2 with coefficients of either
    tower, and beta0 0 or of either tower."""
    rng = random.Random(seed)
    for i in range(count):
        a, b = rng.sample((3, 4, 5), 2)

        def scalar():
            k = rng.choice((a, b))
            return f"{rng.choice(('', '-', '2*'))}z({k})^{rng.randrange(k)}"

        gamma = f"z({a})^{rng.randrange(1, a) if i % 2 else 0}"
        beta = f"z({b})^{rng.randrange(1, b)}"
        g = " + ".join(f"{scalar()}*x2^{d}"
                       for d in rng.sample(range(3), rng.randint(1, 3)))
        beta0 = rng.choice(("0", scalar()))
        yield f"({gamma}*x1 + {g}, {beta}*x2 + {beta0})"


def tower_root(rng, p, max_level=3):
    """zeta_{p^n}^j, n <= max_level, possibly 1."""
    n = rng.randint(0, max_level)
    return CycNum.zeta(p, n, rng.randrange(p ** n))


def resonance_cases(seed, count):
    """(shape, psi, max_order) for triangular-affine psi over one p-tower,
    p in {2, 3, 5}, by shape:

    - translation: beta = 1, beta0 zero or not;
    - unipotent: gamma = 1, beta a root, beta0 zero or not;
    - constant: gamma = 1 and beta != 1, so the constant term of
      h(y) = g(y + t) resonates, t = beta0/(1 - beta); g(t) = 0 or not;
    - resonant: gamma = beta^d for a d <= deg g, with h_d zero or not;
    - non-resonant: beta^d != gamma for every d <= deg g;
    - conjugated: theta^-1 * diag(a, a) * theta as in the maps benchmark.

    max_order is m - 1, m or m + 5 for m = lcm(ord gamma, ord beta)."""
    rng = random.Random(seed)
    shapes = ("translation", "unipotent", "constant", "resonant", "non-resonant",
              "conjugated")
    for i in range(count):
        shape, p = shapes[i % len(shapes)], rng.choice((2, 3, 5))
        beta, beta0 = tower_root(rng, p), tower_element(rng, p)
        while shape in ("constant", "resonant", "non-resonant") and beta == 1:
            beta = tower_root(rng, p)
        if rng.random() < 0.3:
            beta0 = CycNum.zero()
        gamma = tower_root(rng, p)
        h = {d: tower_element(rng, p) for d in rng.sample(range(5), rng.randint(1, 3))}
        if shape == "translation":
            beta = CycNum.one()
        elif shape in ("unipotent", "constant"):
            gamma = CycNum.one()
        elif shape == "resonant":
            gamma = beta ** rng.choice(sorted(h))
        elif shape == "non-resonant":
            while any(beta ** d == gamma for d in range(max(h) + 1)):
                gamma = tower_root(rng, p)
        if shape == "conjugated":
            n = rng.randint(1, 2)
            a = CycNum.zeta(p, n, rng.choice([j for j in range(p ** n) if j % p]))
            theta = TriangularAffine(x1() * tower_element(rng, p) + SparsePoly(
                {(0, d): tower_element(rng, p) for d in (0, 2, 3)}),
                x2() * tower_element(rng, p) + tower_element(rng, p))
            psi = conjugate(TriangularAffine.scaling(a, a), theta)
        else:
            if beta != 1 and rng.random() < 0.5:
                # zero h at every resonant d, so that psi has finite order
                h = {d: c for d, c in h.items() if beta ** d != gamma}
            t = beta0 / (1 - beta) if beta != 1 else CycNum.zero()
            g = SparsePoly({(0, d): c for d, c in h.items()}).substitute(x1(), x2() - t)
            psi = PlaneEndo(x1() * gamma + g, x2() * beta + beta0)
        t = TriangularAffine(psi.f1, psi.f2)
        m = lcm(multiplicative_order(t.gamma), multiplicative_order(t.beta))
        yield shape, psi, max(1, m + rng.choice((-1, 0, 5)))


def affine_inverse(m):
    """The inverse of an invertible affine map m = A x + t: A^-1 (x - t)."""
    (a, b), (c, d) = ((f.coefficient(1, 0), f.coefficient(0, 1)) for f in (m.f1, m.f2))
    inv = (a * d - b * c).inverse()
    y1, y2 = x1() - m.f1.coefficient(0, 0), x2() - m.f2.coefficient(0, 0)
    return PlaneEndo((y1 * d - y2 * b) * inv, (y2 * a - y1 * c) * inv)


def affine_cases(seed, count):
    """(kind, psi, max_order) for affine psi over Q or one p-tower, p in {2,
    3, 5}: a linear map L of finite order (the swap, rotations of order 3,
    4 and 6, a companion (x2, c*x1) or a diagonal of roots, c and the roots
    of order up to p^2), plus a translation half the time, conjugated by a
    random invertible affine map; or a random affine map, of infinite order
    but for chance.  max_order is the order minus one, the order, or 30
    when brute_order(psi, 60) finds none."""
    rng = random.Random(seed)
    for i in range(count):
        p = rng.choice((None, 2, 3, 5))

        def scalar(nonzero=False):
            c = rng.choice(NONZERO_POOL if nonzero else COEFF_POOL)
            return c * tower_root(rng, p, 2) if p and rng.random() < 0.5 else CycNum.rational(c)

        def affine(a, b, c, d, e, f):
            return PlaneEndo(x1() * a + x2() * b + e, x1() * c + x2() * d + f)

        zero, one = CycNum.zero(), CycNum.one()
        kind = rng.choice(("finite", "finite", "random"))
        if kind == "random":
            psi = affine(*(scalar() for _ in range(6)))
        else:
            linear = [(zero, one, one, zero), (zero, one, -one, zero),
                      (zero, one, -one, -one), (zero, one, -one, one)]
            if p:
                root = lambda: tower_root(rng, p, 2)   # noqa: E731
                linear += [(zero, one, root(), zero), (root(), zero, zero, root())]
            a, b, c, d = rng.choice(linear)
            e, f = (scalar(), scalar()) if rng.random() < 0.5 else (zero, zero)
            m = affine(*(scalar(nonzero=True) for _ in range(4)), scalar(), scalar())
            while (m.f1.coefficient(1, 0) * m.f2.coefficient(0, 1)
                   == m.f1.coefficient(0, 1) * m.f2.coefficient(1, 0)):
                m = affine(*(scalar(nonzero=True) for _ in range(4)), scalar(), scalar())
            m_inv = affine_inverse(m)
            assert compose(m, m_inv) == PlaneEndo.identity()
            psi = compose(compose(m_inv, affine(a, b, c, d, e, f)), m)
        order = brute_order(psi, 60)
        yield kind, psi, rng.choice((order - 1, order)) or 1 if order else 30


class TestOrder:
    def test_resonances_match_repeated_squaring(self):
        outcomes = {}
        for shape, psi, max_order in resonance_cases(83, 360):
            k = endo_order(psi, max_order)
            assert k == squaring_order(psi, max_order), (shape, str(psi), max_order)
            outcomes.setdefault(shape, set()).add(k is not None)
        assert outcomes == dict.fromkeys(outcomes, {True, False})
        assert len(outcomes) == 6

    @pytest.mark.parametrize("text,max_order,expected", [
        ("(z(3)*x1 + 1, z(5)*x2)", 15, 15),
        ("(z(3)*x1 + 1, z(5)*x2 + z(25))", 30, 15),
        ("(z(3)*x1 + z(4), z(5)*x2)", 15, 15),
        ("(z(3)*x1 + 1, z(5)*x2 + z(4))", 15, 15),
        ("(z(3)*x1 + x2, z(5)*x2)", 15, 15),
        # beta0 = 0 and no beta^d = gamma: the rule multiplies no scalars
        ("(z(3)*x1 + z(3)*x2^2 + z(3)^2, -z(4)*x2)", 100, 12),
        # d = 1 resonates; with beta0 = 0 the rule reads g_1 = z(3) alone
        ("(z(5)*x1 + z(3)*x2, z(5)*x2)", 15, None),
        # d = 1 resonates with beta0 != 0, so the rule forms z(3) * (1 - z(5))
        ("(z(5)*x1 + z(3)*x2, z(5)*x2 + z(4))", 15, "mixed primes 3 and 5"),
    ])
    def test_scalars_decide_where_two_towers_meet(self, text, max_order, expected):
        psi = parse_endo(text)
        if isinstance(expected, str):
            with pytest.raises(DomainMismatchError, match=f"^{expected}$"):
                endo_order(psi, max_order)
            # over Q(zeta_N) the order is infinite
            assert sympy_order(text, max_order) is None
        else:
            assert endo_order(psi, max_order) == expected == sympy_order(text, max_order)

    def test_seeded_mixed_towers_answer_as_the_oracle_or_raise(self):
        outcomes = set()
        for text in mixed_tower_maps(97, 12):
            try:
                k = endo_order(parse_endo(text), 60)
            except DomainMismatchError:
                outcomes.add("error")
            else:
                assert k == sympy_order(text, 60), text
                outcomes.add("verdict")
        assert outcomes == {"error", "verdict"}

    def test_matches_composition_loop(self):
        found = set()
        for psi, max_order in order_oracle_cases(71, 150):
            k = endo_order(psi, max_order)
            assert k == brute_order(psi, max_order), (str(psi), max_order)
            found.add(k is not None)
        assert found == {True, False}

    def test_affine_maps_match_composition_loop(self):
        found = {}
        for kind, psi, max_order in affine_cases(157, 160):
            k = endo_order(psi, max_order)
            assert k == brute_order(psi, max_order), (kind, str(psi), max_order)
            found.setdefault(kind, set()).add(k is not None)
        assert found["finite"] == {True, False} and False in found["random"]

    @pytest.mark.parametrize("text,order", [
        ("(x2, x1 + 1)", None), ("(x2, -x1 - x2 + 1)", 3), ("(x2, z(8)*x1)", 16),
        ("(x2, -z(9)*x1 + 1)", 36), ("(-x1 + x2, x1)", None), ("(x1, x1)", None)])
    def test_affine_order_is_a_divisor_of_w(self, text, order, monkeypatch):
        # at most log2(W) squares and one product per bit of each divisor,
        # whatever the bound
        calls = []
        monkeypatch.setattr(endo, "compose", lambda phi, psi: calls.append(1) or compose(phi, psi))
        assert endo_order(parse_endo(text), 10 ** 12) == order
        assert len(calls) < 200

    def test_two_tower_affine_map_keeps_its_error(self):
        # the first power is psi*psi, as in the composition loop
        psi = parse_endo("(z(3)*x2, z(5)*x1)")
        with pytest.raises(DomainMismatchError, match="^mixed primes 5 and 3$"):
            brute_order(psi, 10)
        with pytest.raises(DomainMismatchError, match="^mixed primes 5 and 3$"):
            endo_order(psi, 10)

    @pytest.mark.parametrize("text,order", [("(x2, x1)", 2), ("(x2, -x1)", 4)])
    def test_non_triangular_maps_take_the_loop(self, text, order):
        psi = parse_endo(text)
        assert endo_order(psi, order) == order
        assert endo_order(psi, order - 1) is None

    def test_identity(self):
        assert endo_order(PlaneEndo.identity(), 5) == 1

    @pytest.mark.parametrize("text,order", [("(x2, x1)", 2), ("(x2, -x1)", 4)])
    def test_degree_stop_keeps_finite_orders(self, text, order):
        assert endo_order(parse_endo(text), 30) == order

    def test_conjugated_diagonal_maps_match_composition_loop(self):
        degrees = set()
        for psi, max_order in finite_order_cases(101, 40):
            order = brute_order(psi, 12)
            assert endo_order(psi, max_order) == brute_order(psi, max_order), str(psi)
            power = psi
            for _ in range(order):
                # no power up to the order outgrows psi
                assert map_degree(power) <= map_degree(psi), str(psi)
                power = compose(power, psi)
            degrees.add(map_degree(psi))
        # degree 1 where the x2^2 term of t cancels, degree 2 where it stays
        assert degrees == {1, 2}

    def test_degree_stop_ends_infinite_order(self, monkeypatch):
        # deg psi^k = 2^k: psi^2 already outgrows psi, so one composition decides
        calls = []

        def counted(phi, psi):
            calls.append(phi)
            assert len(calls) == 1, "composed again after a power outgrew psi"
            return compose(phi, psi)

        monkeypatch.setattr(endo, "compose", counted)
        assert endo_order(parse_endo("(x2, x1 + x2^2)"), 10 ** 9) is None
        assert len(calls) == 1

    def test_order_two(self):
        assert endo_order(parse_endo("(-x1 - 2*x2^2, -x2)"), 8) == 2

    def test_unipotent_has_no_order(self):
        assert endo_order(parse_endo("(x1 + x2^2, x2)"), 10) is None

    def test_conjugation_invariance(self):
        rng = random.Random(53)
        for _ in range(10):
            theta = random_triangular(rng)
            psi = TriangularAffine.scaling(CycNum.zeta(2, 2), CycNum.zeta(2, 2))
            assert endo_order(conjugate(psi, theta), 8) == endo_order(psi, 8)


def resonance_oracle_cases(seed, count):
    """(t, step) for triangular-affine t over one p-tower, p in {2, 3, 5, 7}:
    gamma and beta are +-zeta_{p^n}^j (n <= 3 for p = 2 and 3, n <= 2 for 5
    and 7), gamma = beta^d0 for a drawn d0 half the time, beta0 is zero or
    not (zero where beta = 1), and g = h(x2 - c), c = beta0/(1 - beta), for
    a drawn h of up to four terms of degree <= 6 with its resonant terms
    dropped half the time.  step is the order of beta."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((2, 3, 5, 7))

        def root():
            return tower_root(rng, p, 3 if p < 5 else 2) * rng.choice((1, -1))

        beta = root()
        gamma = beta ** rng.randint(0, 6) if rng.random() < 0.5 else root()
        beta0 = tower_element(rng, p) if beta != 1 and rng.random() < 0.6 else CycNum.zero()
        h = {d: tower_element(rng, p) for d in rng.sample(range(7), rng.randint(0, 4))}
        if rng.random() < 0.5:
            h = {d: c for d, c in h.items() if beta ** d != gamma}
        c = beta0 / (1 - beta) if beta0 else CycNum.zero()
        g = SparsePoly({(0, d): c_d for d, c_d in h.items()}).substitute(x1(), x2() - c)
        yield TriangularAffine(x1() * gamma + g, x2() * beta + beta0), multiplicative_order(beta)


def resonance_oracle(t):
    """The least d <= deg g with beta^d = gamma and x2^d in h = g(x2 + c),
    c = beta0/(1 - beta) by the tower inverse, which the rule avoids."""
    c = t.beta0 * (1 - t.beta).inverse() if t.beta0 else CycNum.zero()
    h = t.g.substitute(x1(), x2() + c)
    return next((d for d in range(max(t.g.degree, 0) + 1)
                 if t.beta ** d == t.gamma and not h.coefficient(0, d).is_zero), None)


class TestResonance:
    def test_matches_the_tower_inverse_oracle(self):
        seen = set()
        for t, step in resonance_oracle_cases(131, 400):
            d = endo.resonance(t, step)
            assert d == resonance_oracle(t), str(t)
            seen.add((t.beta0.is_zero, d is None))
        # beta0 zero and not, each with and without a resonant degree
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("text,expected", [
        # gamma = beta^(2^39 + 1): the class of beta^d = gamma lies past deg g
        ("(-z(1099511627776)*x1 + x2^1000000 + x2^3, z(1099511627776)*x2)", None),
        ("(z(1099511627776)^3*x1 + x2^1000000 + x2^3, z(1099511627776)*x2)", 3),
        # beta = -1: the class of odd d is found at d = 1, and only g's
        # degrees are tested on it
        ("(-x1 + x2^1000000 + x2^2, -x2)", None),
        ("(-x1 + x2^1000001 + x2^2, -x2)", 1000001),
    ])
    def test_sparse_g_costs_at_most_two_powers_per_degree(self, text, expected,
                                                          monkeypatch):
        psi = parse_endo(text)
        t = TriangularAffine(psi.f1, psi.f2)
        powers, power = [], CycNum.__pow__
        monkeypatch.setattr(CycNum, "__pow__",
                            lambda self, e: powers.append(e) or power(self, e))
        assert endo.resonance(t, multiplicative_order(t.beta)) == expected
        assert len(powers) <= 2 * len(t.g)


class TestRecognition:
    """The constructor recognizes the triangular-affine shape."""

    def test_round_trip(self):
        rng = random.Random(59)
        for _ in range(20):
            gamma, g, beta, beta0 = params = random_parameters(rng)
            theta = TriangularAffine(x1() * gamma + g, x2() * beta + beta0)
            again = TriangularAffine(theta.f1, theta.f2)
            assert again == theta
            for t in (theta, again):
                assert (t.gamma, t.g, t.beta, t.beta0) == params

    def test_keeps_given_polynomials(self):
        f1, f2 = x1() * 2 + x2() ** 3, x2() + 1
        theta = TriangularAffine(f1, f2)
        assert theta.f1 is f1 and theta.f2 is f2

    def test_constructor_makes_no_field_call(self, monkeypatch):
        rng = random.Random(67)
        maps = [(t.f1, t.f2) for p in (2, 3, 5) for t in
                (random_triangular(rng, p) for _ in range(10))]
        calls = count_dots(monkeypatch)
        built = [TriangularAffine(f1, f2) for f1, f2 in maps]
        assert calls == [0]
        monkeypatch.undo()
        for t in built:
            assert t.g == t.f1 - x1() * t.gamma

    @pytest.mark.parametrize("text", ["(x2, x1)", "(x1*x2, 2*x2)", "(x1, x2^2)"])
    def test_rejected_shape_makes_no_field_call(self, monkeypatch, text):
        psi = parse_endo(text)
        calls = count_dots(monkeypatch)
        with pytest.raises(ValueError, match="^not triangular-affine"):
            TriangularAffine(psi.f1, psi.f2)
        assert calls == [0]

    def test_two_tower_inverse_fails_alike_in_every_term_order(self):
        # g is read in print order, so the first two primes met are those of
        # the map, not of how its terms were written
        terms = ["z(3)*x2^2", "z(5)*x2", "z(4)"]
        errors = set()
        for order in itertools.permutations(terms):
            theta = parse_endo(f"(z(9)*x1 + {' + '.join(order)}, z(8)*x2 + 1)")
            with pytest.raises(DomainMismatchError) as info:
                TriangularAffine(theta.f1, theta.f2).inverse()
            errors.add(str(info.value))
        assert len(errors) == 1

    def test_rejects_non_triangular(self):
        for text in ("(x1, x1 + x2)", "(x2, x1)", "(x1 + x1*x2, x2)"):
            endo = parse_endo(text)
            with pytest.raises(ValueError):
                TriangularAffine(endo.f1, endo.f2)

"""Expression grammar: parsing, canonical printing, round trips."""

import random
from fractions import Fraction
from functools import reduce
from operator import add, sub
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from planeaut import (CycNum, DomainMismatchError, ParseError, PlaneEndo,
                      SparsePoly, parse_endo, parse_poly, parse_scalar,
                      parse_triangular)
from planeaut.parsing import MAX_NESTING, MAX_POWER_BITS, _Parser

from conftest import random_cycnum, random_poly


class TestParsePoly:
    def test_basic(self):
        assert parse_poly("x1 + x2^2") == SparsePoly.x1() + SparsePoly.x2() ** 2

    def test_root_constant(self):
        assert parse_poly("z(4)^2") == SparsePoly.constant(-1)

    def test_canonical_round_trip(self):
        text = "x1 + -2*x2^2"
        assert str(parse_poly(text)) == text

    def test_whitespace_insensitive(self):
        assert parse_poly("x1+-2*x2^2") == parse_poly(" x1 +  -2 * x2 ^ 2 ")

    def test_rational_literals(self):
        assert parse_poly("3/2*z(4)^3") == SparsePoly.constant(
            CycNum.zeta(2, 2, 3) * Fraction(3, 2))

    def test_parenthesized_scalar_coefficient(self):
        f = parse_poly("(1 + z(4))*x2")
        assert f.coefficient(0, 1) == 1 + CycNum.zeta(2, 2)

    def test_division_by_constant(self):
        assert parse_poly("x1/2") == SparsePoly.x1() * Fraction(1, 2)

    def test_power_binds_tighter_than_product(self):
        assert parse_poly("2*x2^3") == SparsePoly.monomial(0, 3, 2)

    def test_unary_minus(self):
        assert parse_poly("-x1^2") == -(SparsePoly.x1() ** 2)


class TestParseErrors:
    @pytest.mark.parametrize("text,line,column", [
        pytest.param("x1 + @", 1, 6, id="bad-character"),
        pytest.param("x1 +\n  x3", 2, 3, id="second-line"),
        pytest.param("x1 x2", 1, 4, id="trailing-input"),
        pytest.param("z(6)", 1, 3, id="root-modulus"),
        pytest.param("x1/0", 1, 3, id="division-by-zero"),
        pytest.param("x1^x2", 1, 4, id="exponent"),
        pytest.param("x1\t+ @", 1, 6, id="tab"),
        pytest.param("x1 +\n\n  @", 3, 3, id="third-line"),
    ])
    def test_error_positions(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text,char,column", [
        ("²", "²", 1),
        ("٣*x1", "٣", 1),
        ("x1 + é", "é", 6),
        # before the syntax error at ')'
        ("(1 + ) ²", "²", 8),
    ])
    def test_non_ascii_character(self, text, char, column):
        with pytest.raises(ParseError, match=f"unexpected character {char!r}") as err:
            parse_poly(text)
        assert (err.value.line, err.value.column) == (1, column)

    def test_mixed_primes_at_operator(self):
        with pytest.raises(ParseError, match="mixed primes 2 and 3") as err:
            parse_poly("x1 + z(4)*z(3)")
        assert (err.value.line, err.value.column) == (1, 10)

    def test_mixed_primes_in_a_power_at_the_caret(self):
        # the square multiplies z(4) by z(9): the error is placed at '^'
        with pytest.raises(ParseError) as err:
            parse_poly("(z(4)*x2 + z(9))^2")
        assert str(err.value) == "mixed primes 2 and 3 (line 1, column 17)"

    def test_mixed_primes_in_a_sum_at_the_operator(self):
        with pytest.raises(ParseError, match="mixed primes 2 and 3") as err:
            parse_scalar("z(4) + 1 + z(3)")
        assert (err.value.line, err.value.column) == (1, 10)

    def test_monomial_recurring_after_its_sum_cancelled_goes_last(self):
        # x1 - x1 leaves no x1 term, so the last x1 comes after z(3)*x2: the
        # substitution meets z(3) before z(5), as the descent's sums order it
        endo = parse_endo("(x1 - x1 + z(3)*x2 + x1, x2)")
        assert list(endo.f1._terms) == [(0, 1), (1, 0)]
        with pytest.raises(DomainMismatchError, match="mixed primes 3 and 5"):
            endo.f1.substitute(parse_poly("x1 + z(5)*x2"), SparsePoly.x2())

    @pytest.mark.parametrize("op", "+-")
    def test_mixed_primes_in_a_polynomial_sum_name_the_running_sums_pair(self, op):
        # both shared monomials mix primes: the running sum's first (x1) is
        # named, whatever order the right-hand side holds them in
        with pytest.raises(ParseError) as err:
            parse_poly(f"z(5)*x1 + z(3)*x2 {op} (z(5)*x2 + z(3)*x1)")
        assert str(err.value) == "mixed primes 5 and 3 (line 1, column 19)"

    def test_missing_operand_at_end(self):
        with pytest.raises(ParseError, match="expected a value but found 'end of input'") as err:
            parse_poly("x1 +")
        assert (err.value.line, err.value.column) == (1, 5)

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown name 'x3'"):
            parse_poly("x1 + x3")

    def test_malformed_root(self):
        with pytest.raises(ParseError, match="not a prime power"):
            parse_poly("z(6)")

    def test_division_by_polynomial(self):
        with pytest.raises(ParseError, match="non-constant"):
            parse_poly("x1 / x2")

    def test_division_by_zero(self):
        with pytest.raises(ParseError, match="division by zero"):
            parse_poly("x1 / 0")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_poly("x1 x2")

    @pytest.mark.parametrize("text,column", [
        pytest.param("1" * 5000 + "*x1", 1, id="literal"),
        pytest.param("x1^" + "1" * 5000, 4, id="exponent"),
        pytest.param("z(" + "1" * 5000 + ")", 3, id="root-modulus"),
    ])
    def test_integer_literal_too_long(self, text, column):
        # more digits than int() converts from text
        with pytest.raises(ParseError, match="^integer literal too long") as err:
            parse_poly(text)
        assert (err.value.line, err.value.column) == (1, column)

    def test_unclosed_long_root_modulus_reports_the_parenthesis(self):
        with pytest.raises(ParseError, match="expected '\\)' but found 'end of input'"):
            parse_poly("z(" + "1" * 5000)


def nested(depth: int, inner: str = "x1") -> str:
    return "(" * depth + inner + ")" * depth


class TestNesting:
    def test_nesting_limit_parses(self):
        assert parse_poly(nested(MAX_NESTING)) == SparsePoly.x1()
        assert parse_endo(f"({nested(MAX_NESTING)}, x2)") == PlaneEndo.identity()

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 250, 1000])
    def test_deeper_parentheses_rejected_at_their_position(self, depth):
        with pytest.raises(ParseError, match="nested deeper") as err:
            parse_poly(nested(depth))
        assert (err.value.line, err.value.column) == (1, MAX_NESTING + 1)

    def test_position_counts_lines(self):
        text = "x1 +\n" + nested(MAX_NESTING + 1)
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert (err.value.line, err.value.column) == (2, MAX_NESTING + 1)

    def test_depth_restored_after_each_group(self):
        text = " + ".join([nested(MAX_NESTING)] * 3)
        assert parse_poly(text) == SparsePoly.x1() * 3

    @pytest.mark.parametrize("count,sign", [(1000, 1), (1001, -1), (5000, 1)])
    def test_long_minus_run(self, count, sign):
        assert parse_poly("-" * count + "x1") == SparsePoly.x1() * sign

    def test_minus_before_each_parenthesis(self):
        assert parse_poly("-(" * MAX_NESTING + "x1" + ")" * MAX_NESTING) == SparsePoly.x1()
        with pytest.raises(ParseError, match="nested deeper"):
            parse_poly("-(" * 250 + "x1" + ")" * 250)

    def test_parenthesized_coefficient_at_the_limit(self):
        # the chain reader declines a coefficient's parenthesis past the
        # limit, so the descent rejects it where it stands
        inner = "(1/2)*x1 + x2"
        assert parse_poly(nested(MAX_NESTING - 1, inner)) == (
            SparsePoly.monomial(1, 0, Fraction(1, 2)) + SparsePoly.x2())
        with pytest.raises(ParseError, match="nested deeper") as err:
            parse_poly(nested(MAX_NESTING, inner))
        assert (err.value.line, err.value.column) == (1, MAX_NESTING + 1)

    def test_scalar(self):
        assert parse_scalar("-" * 1001 + nested(MAX_NESTING, "1/2")) == Fraction(-1, 2)
        with pytest.raises(ParseError, match="nested deeper"):
            parse_scalar(nested(250, "1"))


class TestParseScalar:
    def test_values(self):
        assert parse_scalar("3/2") == Fraction(3, 2)
        assert parse_scalar("z(8)") == CycNum.zeta(2, 3)
        assert parse_scalar("z(1)") == 1
        assert parse_scalar("1 + -1*z(4)") == 1 - CycNum.zeta(2, 2)

    def test_sum_that_cancels_before_a_second_prime(self):
        # the left fold is 0 when z(3) meets it, so no primes mix
        assert parse_scalar("z(4) - z(4) + z(3)") == CycNum.zeta(3, 1)

    def test_rejects_polynomial(self):
        with pytest.raises(ParseError):
            parse_scalar("x1 + 1")

    def test_cancelling_variables_are_not_a_scalar(self):
        # a scalar is an expression without x1 and x2, whatever it evaluates to
        with pytest.raises(ParseError, match="expected a scalar") as err:
            parse_scalar("x2 - x2 + 3")
        assert (err.value.line, err.value.column) == (1, 1)

    @pytest.mark.parametrize("text,line,column", [
        ("2 + x1", 1, 5),
        ("z(4)*(1 +\n  x2*x1)", 2, 3),
        ("z(4) - 3*x2", 1, 10),
    ])
    def test_polynomial_error_is_placed_at_its_first_variable(self, text, line, column):
        with pytest.raises(ParseError, match="expected a scalar") as err:
            parse_scalar(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_cancelling_variables_are_not_a_divisor(self):
        with pytest.raises(ParseError, match="division by a non-constant") as err:
            parse_poly("1/(x1 - x1 + 2)")
        assert (err.value.line, err.value.column) == (1, 2)

    @pytest.mark.parametrize("text", ["1000000000000000003", "1009"])
    def test_root_modulus_over_the_prime_limit(self, text):
        with pytest.raises(ParseError, match=f"^{text} has no prime factor up to "
                           "the limit 1000 \\(line 1, column 3\\)$"):
            parse_scalar(f"z({text})")

    def test_root_modulus_at_the_prime_limit(self):
        assert parse_scalar("z(997)^996") == CycNum.zeta(997, 1, 996)


def over_budget(text, column):
    with pytest.raises(ParseError, match="^scalar power over the budget of "
                       f"{MAX_POWER_BITS} numerator bits") as err:
        parse_scalar(text)
    assert (err.value.line, err.value.column) == (1, column)


class TestPowerBudget:
    @pytest.mark.parametrize("text,column", [
        pytest.param("(1+z(7))^1000000", 10, id="two-terms"),
        pytest.param("3^30000000", 3, id="rational"),
        pytest.param("1/3^30000000", 5, id="denominator"),
        pytest.param(f"2^{MAX_POWER_BITS // 2 + 1}", 3, id="past-the-edge"),
        # the estimate reads the base's value: 40,001 bits, cubed
        pytest.param("(2^40000)^3", 11, id="nested"),
    ])
    def test_rejected_at_the_exponent(self, text, column):
        over_budget(text, column)

    def test_constant_polynomial_counts_as_its_scalar(self):
        with pytest.raises(ParseError, match="^scalar power over the budget") as err:
            parse_poly("(x2 - x2 + 3)^30000000*x1")
        assert err.value.column == 15
        assert parse_poly("(x2 - x2 + 3)^2*x1") == SparsePoly.monomial(1, 0, 9)
        assert parse_poly("(x2 - x2)^" + "9" * 30) == SparsePoly.zero()

    def test_at_the_edge(self):
        # 2 has 2 bits, so 2^e is estimated at 2e bits
        assert parse_scalar(f"2^{MAX_POWER_BITS // 2}") == 2 ** (MAX_POWER_BITS // 2)

    @pytest.mark.parametrize("text,value", [
        ("1^" + "9" * 30, 1),
        ("(-1)^" + "9" * 30, -1),
        ("0^" + "9" * 30, 0),
        ("z(7)^" + "9" * 30, CycNum.zeta(7, 1, 10 ** 30 - 1)),
        ("(-z(4))^" + "9" * 30, CycNum.zeta(2, 2)),
        # a root of unity of two terms, -1 - z(3)
        ("(z(3)^2)^" + "9" * 30, 1),
    ])
    def test_roots_of_unity_are_free(self, text, value):
        assert parse_scalar(text) == value

    def test_polynomial_base_is_not_a_scalar_power(self):
        assert parse_poly("(2*x1)^3") == SparsePoly.monomial(3, 0, 8)


class TestParseEndo:
    def test_pair(self):
        e = parse_endo("(x1 + x2^2, x2)")
        assert e == PlaneEndo(SparsePoly.x1() + SparsePoly.x2() ** 2,
                              SparsePoly.x2())

    def test_triangular_recognition(self):
        theta = parse_triangular("(2*x1 + x2^3, x2 + 1)")
        assert theta.gamma == 2
        assert theta.beta0 == 1

    def test_triangular_rejection(self):
        with pytest.raises(ParseError, match="triangular"):
            parse_triangular("(x2, x1)")

    @pytest.mark.parametrize("text, line, column", [
        ("(x2, x1)", 1, 6),
        ("(x1 + 1,\n x1*x2)", 2, 2),
        ("(x1*x2, 2*x2)", 1, 2),
    ])
    def test_triangular_rejection_is_placed_at_its_component(self, text, line, column):
        # at the second component unless it is beta*x2 + beta0, else the first
        with pytest.raises(ParseError) as err:
            parse_triangular(text)
        assert str(err.value) == ("automorphism is not triangular-affine (need "
                                  "(gamma*x1 + g(x2), beta*x2 + beta0)) "
                                  f"(line {line}, column {column})")


class TestRoundTrips:
    def test_scalar_round_trip_randomized(self):
        rng = random.Random(113)
        for _ in range(150):
            value = random_cycnum(rng, rng.choice([2, 3, 5]))
            assert parse_scalar(str(value)) == value

    def test_poly_round_trip_randomized(self):
        rng = random.Random(127)
        for _ in range(150):
            f = random_poly(rng, p=rng.choice([2, 3]))
            assert parse_poly(str(f)) == f

    def test_endo_round_trip_randomized(self):
        rng = random.Random(131)
        for _ in range(60):
            e = PlaneEndo(random_poly(rng), random_poly(rng))
            assert parse_endo(str(e)) == e


RATIONALS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))
ROOTS = st.builds(CycNum.zeta, st.sampled_from([2, 3, 5]), st.integers(1, 2),
                  st.integers(0, 24))


@given(RATIONALS)
def test_fraction_literal_round_trip(q):
    assert parse_scalar(str(CycNum.rational(q))) == q


@given(ROOTS)
def test_root_literal_round_trip(value):
    assert parse_scalar(str(value)) == value


# Literals of rationals, of roots, and of sparse elements of the p-towers.
SCALAR_LITERALS = st.one_of(
    RATIONALS.map(lambda q: str(CycNum.rational(q))), ROOTS.map(str),
    st.builds(lambda seed, p: str(random_cycnum(random.Random(seed), p)),
              st.integers(0, 2 ** 32), st.sampled_from([2, 3, 5])))


@given(SCALAR_LITERALS)
def test_scalar_meets_polynomial_through_every_mixed_operator(t):
    c = parse_scalar(t)
    assert parse_poly(f"({t})*x1") == SparsePoly.monomial(1, 0, c)
    assert parse_poly(f"x1 - ({t}) - x1") == SparsePoly.constant(-c)
    assert parse_poly(f"({t}) + x2 - x2") == SparsePoly.constant(c)
    assert parse_poly(f"({t}) - x2") == SparsePoly.constant(c) - SparsePoly.x2()
    assert parse_poly(f"x2*({t})") == SparsePoly.monomial(0, 1, c)
    value = parse_poly(t)
    assert isinstance(value, SparsePoly) and value == SparsePoly.constant(c)
    if not c.is_zero:
        assert parse_poly(f"x1/({t})") == SparsePoly.monomial(1, 0, c.inverse())


@given(st.sampled_from([2, 3, 5, 7]),
       st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=12))
def test_sum_literal_is_the_left_fold_of_its_terms(p, seeds):
    terms = [str(random_cycnum(random.Random(seed), p)) for seed in seeds]
    values = [parse_scalar(t) for t in terms]
    assert parse_scalar(" + ".join(terms)) == reduce(add, values)
    assert parse_scalar(" - ".join(f"({t})" for t in terms)) == reduce(sub, values)


@given(st.lists(st.tuples(st.sampled_from("+-"), st.sampled_from([2, 3, "x1", "x2"]),
                          st.integers(0, 2 ** 32)), min_size=1, max_size=8))
@example([("+", 2, 6), ("-", "x1", 0), ("+", 3, 0)])   # z(4), then z(3) on a polynomial
def test_two_tower_chain_fails_where_the_left_fold_fails(operands):
    """Each operand is parenthesized, so the fold over them is the parser's
    fold; a mixed-prime error is placed at the operator where it first
    arises, and a chain that cancels to a rational in time is a value.  An
    operand may be x1 or x2, so the fold switches between field values and
    polynomials."""
    text, value, error = "0", CycNum.zero(), None
    for op, p, seed in operands:
        if p in ("x1", "x2"):
            t = SparsePoly.x1() if p == "x1" else SparsePoly.x2()
        else:
            t = random_cycnum(random.Random(seed), p, max_level=2)
        column = len(text) + 2
        text += f" {op} ({t})"
        if error is None:
            try:
                value = value + t if op == "+" else value - t
            except DomainMismatchError as exc:
                error = f"{exc} (line 1, column {column})"
    if error is None and isinstance(value, SparsePoly):
        assert parse_poly(text) == value
    elif error is None:
        assert parse_scalar(text) == value
    else:
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert str(err.value) == error


# The grammar's characters without '^' (so no input asks for a large power),
# whitespace, and characters that are digits or letters only outside ASCII.
PARSER_INPUT = st.text(alphabet="0123456789xz_+-*/(), \t\n²٣é", max_size=30)


@settings(deadline=None)
@given(PARSER_INPUT)
def test_every_input_parses_or_fails_inside_the_text(text):
    try:
        parse_poly(text)
    except ParseError as err:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1


SPACES = st.sampled_from(["", " ", "  ", "\t", "\n"])
# terms the chain reader leaves to the descent: a root of a second prime
# (next to an irrational one of p), in one coefficient or in one monomial's
# sum, a zero divisor, moduli that z(m) rejects, INTs over the digit limit
FAULTS = ["z({pp}) + z({q})", "3/0", "z(6)", "z(12)", "z(1009)", "z(0)",
          "1" * 4301, "z(4)^" + "1" * 4301, "(z({pp}) + z({q}))*x1",
          "z({pp})*x2 - z({q})*x2", "(1/0)*x2", "x1^" + "1" * 4301]
# monomials of the terms (None for a scalar term), x1^0 among them, few
# enough that they recur
MONOMIALS = [None, None, (0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 3), (2, 1)]


@st.composite
def scalar_terms(draw, p):
    """(text, value): q, z(m), z(m)^e or q*z(m)^e over p, spaced at random or
    in the printer's form, with z(1), exponents past m and zero numerators;
    the value is q * CycNum.zeta(p, n, e) through the field's API."""
    text, value = "", CycNum.one()
    level = draw(st.sampled_from([None, 0, 1, 2, 3]))
    if level is None or draw(st.booleans()):
        num, den = draw(st.integers(0, 40)), draw(st.sampled_from([None, 1, 2, 9]))
        text = f"{num}" + (f"{draw(SPACES)}/{draw(SPACES)}{den}" if den else "")
        value = CycNum.rational(Fraction(num, den or 1))
    if level is not None:
        e = draw(st.none() | st.integers(0, 2 * p ** level + 1))
        text += (f"{draw(SPACES)}*{draw(SPACES)}" if text else "") + (
            f"z{draw(SPACES)}({draw(SPACES)}{p ** level}{draw(SPACES)})")
        if e is not None:
            text += f"{draw(SPACES)}^{draw(SPACES)}{e}"
        value = value * CycNum.zeta(p, level, 1 if e is None else e)
    return text, value


@st.composite
def signed_sum(draw, terms):
    """(text, value) of the (text, value, negate) terms joined by '+'/'-',
    each after up to three unary '-', with value None where a term's is."""
    text, value = draw(SPACES), CycNum.zero()
    for i, (term, v, negate) in enumerate(terms):
        op = draw(st.sampled_from("+-")) if i else "+"
        minus = 2 * draw(st.integers(0, 1)) + ((op == "-") != negate)
        if i:
            text += f"{draw(SPACES)}{op}{draw(SPACES)}"
        text += f"-{draw(SPACES)}" * minus + term
        if value is not None:
            value = None if v is None else value - v if negate else value + v
    return text + draw(SPACES), value


@st.composite
def chain_literals(draw):
    """(text, value, reads): a '+'/'-' chain of terms over one prime p,
    each a coefficient, a monomial or a coefficient '*' a monomial, where a
    coefficient is a scalar term or a parenthesized chain of them and a
    monomial is written x1^a*x2^b, with x1^0, ^1 and x2^b alone among the
    forms; two times in three each term recurs negated, right after it or
    after all the terms, so that the monomials cancel.  The value is the sum
    through the field's and the ring's API, or None where a fault is mixed
    in; reads tells whether the chain reader takes the chain: no fault, and
    no monomial recurs after another monomial's term, a scalar term's
    monomial being 1."""
    p = draw(st.sampled_from([2, 3, 5]))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        mono = draw(st.sampled_from(MONOMIALS))
        shape = draw(st.sampled_from(["scalar", "paren"] + ["bare"] * (mono is not None)))
        if shape == "scalar":
            text, value = draw(scalar_terms(p))
        elif shape == "paren":
            inner = draw(st.lists(st.tuples(scalar_terms(p), st.booleans()),
                                  min_size=1, max_size=3))
            text, value = draw(signed_sum([(t, v, neg) for (t, v), neg in inner]))
            text = f"({text})"
        else:
            text, value = "", CycNum.one()
        if mono is not None:
            e1, e2 = mono
            factors = [f"x1{draw(SPACES)}^{draw(SPACES)}{e1}" if e1 != 1 or draw(st.booleans())
                       else "x1"] if e1 or not e2 else []
            if e2:
                factors.append(f"x2{draw(SPACES)}^{draw(SPACES)}{e2}"
                               if e2 != 1 or draw(st.booleans()) else "x2")
            monomial = f"{draw(SPACES)}*{draw(SPACES)}".join(factors)
            text = f"{text}{draw(SPACES)}*{draw(SPACES)}{monomial}" if text else monomial
            value = SparsePoly.monomial(e1, e2, value)
        terms.append((text, value, draw(st.booleans()), mono or (0, 0)))
    cancel = draw(st.sampled_from(["none", "next", "last"]))
    negated = [(text, value, not negate, mono) for text, value, negate, mono in terms]
    if cancel == "next":
        terms = [t for pair in zip(terms, negated) for t in pair]
    elif cancel == "last":
        terms += negated
    runs = [mono for i, (*_, mono) in enumerate(terms) if not i or terms[i - 1][3] != mono]
    fault = draw(st.none() | st.sampled_from(FAULTS))
    if fault is not None:
        q = 7 if p == 5 else 5
        terms.insert(draw(st.integers(0, len(terms))),
                     (fault.format(pp=p * p, q=q), None, False, None))
    text, value = draw(signed_sum([term[:3] for term in terms]))
    return text, value, fault is None and len(set(runs)) == len(runs)


def outcome(parse, text):
    """parse(text), or the text of its ParseError with line and column."""
    try:
        return parse(text)
    except ParseError as err:
        return str(err)


@settings(deadline=None)
@given(chain_literals())
def test_chain_reader_agrees_with_the_descent(case):
    """The reader takes every fault-free chain and declines every other; the
    descent alone (the reader patched to decline) gives the same value or
    the same error, read whole as a scalar and as a polynomial, as a
    coefficient in a map and as a map's entry, and the same term map, in the
    same order."""
    text, value, reads = case
    assert (_Parser(text).chain() is not None) == reads
    in_map = f"(({text})*x1 + x2, {text})"
    parses = (parse_scalar, parse_poly, parse_endo)
    read = [outcome(parse, t) for parse, t in zip(parses, (text, text, in_map))]
    with patch.object(_Parser, "chain", lambda self: None):
        descent = [outcome(parse, t) for parse, t in zip(parses, (text, text, in_map))]
    assert descent == read
    if value is not None:
        assert read[1] == value
        if isinstance(value, CycNum):
            assert read[0] == value
        assert list(read[1]._terms) == list(descent[1]._terms)


def test_printed_maps_are_read_in_one_match():
    """The printers emit the chain reader's language: each component of a
    random map is read whole by the reader, to itself."""
    rng = random.Random(149)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        for f in (random_poly(rng, p=p), random_poly(rng, p=p, max_terms=20, max_level=3)):
            value = _Parser(str(f)).chain()
            assert value is not None and value == f, str(f)

"""Expression grammar: parsing, canonical printing, round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planeaut import (CycNum, ParseError, PlaneEndo, SparsePoly, parse_endo,
                      parse_poly, parse_scalar, parse_triangular)
from planeaut.parsing import MAX_NESTING

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
    ])
    def test_non_ascii_character(self, text, char, column):
        with pytest.raises(ParseError, match=f"unexpected character {char!r}") as err:
            parse_poly(text)
        assert (err.value.line, err.value.column) == (1, column)

    def test_mixed_primes_at_operator(self):
        with pytest.raises(ParseError, match="mixed primes 2 and 3") as err:
            parse_poly("x1 + z(4)*z(3)")
        assert (err.value.line, err.value.column) == (1, 10)

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

    def test_rejects_polynomial(self):
        with pytest.raises(ParseError):
            parse_scalar("x1 + 1")


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


@given(st.integers(-40, 40), st.integers(1, 40))
def test_fraction_literal_round_trip(num, den):
    q = Fraction(num, den)
    assert parse_scalar(str(CycNum.rational(q))) == q


@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.integers(0, 24))
def test_root_literal_round_trip(p, level, exp):
    value = CycNum.zeta(p, level, exp)
    assert parse_scalar(str(value)) == value


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

"""CLI commands: golden transcripts, exit codes, manifest input."""

import io
import json
import subprocess
import sys
from ast import literal_eval
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import planeaut
import planeaut.prufer as prufer
from planeaut import CycNum, PlaneEndo, SparsePoly
from planeaut.cli import COMMANDS, _parse_args, build_parser, main
from planeaut.conjugacy import MAX_K0
from planeaut.parsing import MAX_POWER_BITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_VERIFY = "OK: formula matches composition\n"

GOLDEN_LINEARIZE = (
    "LINEARIZED\n"
    "theta = (x1 + -x2^2, x2)\n"
    "h = (-x1, -x2)\n"
)

TOO_LONG_TO_PRINT = ("error: coefficient too long to print (over "
                     f"{sys.get_int_max_str_digits()} digits)\n")

TARGET_SHAPE = "the target must have the shape (alpha*x1 + S(x2), alpha*x2)"

GOLDEN_NONCONJ = (
    "NON-CONJUGATE CERTIFICATE\n"
    "failing indices: preamble=0, period=2, offsets=[1]\n"
    "reason: supports disagree on a periodic index set\n"
)


class TestGoldenTranscripts:
    def test_verify_formula(self, capsys):
        code, out, _ = run(capsys, "verify-formula", "--p", "2",
                           "--prefix", "1,1", "--alpha", "1/2")
        assert code == 0
        assert out == GOLDEN_VERIFY

    def test_linearize(self, capsys):
        code, out, _ = run(capsys, "linearize", "--target",
                           "(-x1 - 2*x2^2, -x2)", "--max-degree", "2")
        assert code == 0
        assert out == GOLDEN_LINEARIZE

    def test_nonconj_check(self, capsys):
        code, out, _ = run(capsys, "nonconj-check", "--p", "2",
                           "--tail", "1", "--tail", "1,0")
        assert code == 1
        assert out == GOLDEN_NONCONJ

    def test_verify_formula_mismatch(self, capsys, monkeypatch):
        # a closed form with a changed x2 scalar differs from the composition
        right = prufer.conj_closed_form

        def wrong(s, alpha):
            form = right(s, alpha)
            return PlaneEndo(form.f1, form.f2 * 2)

        monkeypatch.setattr(prufer, "conj_closed_form", wrong)
        assert run(capsys, "verify-formula", "--p", "2", "--prefix", "1,1",
                   "--alpha", "1/2") == (
            1, "MISMATCH: closed form differs from composition\n", "")

    def test_determinism(self, capsys):
        first = run(capsys, "linearize", "--target", "(-x1 - 2*x2^2, -x2)",
                    "--max-degree", "2")
        second = run(capsys, "linearize", "--target", "(-x1 - 2*x2^2, -x2)",
                     "--max-degree", "2")
        assert first == second


class TestCommands:
    def test_compose(self, capsys):
        code, out, _ = run(capsys, "compose", "(x1 + x2^2, x2)", "(2*x1, x2)")
        assert code == 0
        assert out == "(2*x1 + x2^2, x2)\n"

    def test_compose_monomial_maps(self, capsys):
        # a diagonal map of roots: each term rewritten once
        assert run(capsys, "compose", "(x1*x2 + z(9)*x2^2, x2)",
                   "(z(9)*x1, z(9)^2*x2)") == (
            0, "(z(3)*x1*x2 + z(9)^5*x2^2, z(9)^2*x2)\n", "")

    def test_compose_two_towers_names_the_substituted_scalar_first(self, capsys):
        assert run(capsys, "compose", "(z(3)*x1, x2)", "(z(5)*x1, x2)") == (
            2, "", "error: mixed primes 5 and 3\n")

    def test_compose_two_towers_after_a_cancelled_monomial(self, capsys):
        # x1 - x1 cancels, so the last x1 term follows z(3)*x2 and z(3) is met first
        assert run(capsys, "compose", "(x1 - x1 + z(3)*x2 + x1, x2)",
                   "(x1 + z(5)*x2, x2)") == (2, "", "error: mixed primes 3 and 5\n")

    def test_invert(self, capsys):
        code, out, _ = run(capsys, "invert", "(x1 + x2^2 + x2^3, x2)")
        assert code == 0
        assert out == "(x1 + -x2^2 + -x2^3, x2)\n"

    def test_invert_a_scaled_root_of_a_huge_field(self, capsys):
        assert run(capsys, "invert", "(3*z(1099511627776)*x1, x2)") == (
            0, "(-1/3*z(1099511627776)^549755813887*x1, x2)\n", "")

    def test_order_found(self, capsys):
        code, out, _ = run(capsys, "order", "(-x1 - 2*x2^2, -x2)")
        assert (code, out) == (0, "order = 2\n")

    def test_order_not_found(self, capsys):
        code, out, _ = run(capsys, "order", "(x1 + x2^2, x2)",
                           "--max-order", "10")
        assert (code, out) == (1, "no order found up to 10\n")

    def test_order_stops_once_a_power_outgrows_the_map(self):
        # deg psi^k = 2^k, so the second power already ends the loop
        assert fresh_process("order", "(x2, x1 + x2^2)", "--max-order", "30",
                             timeout=5) == (1, "no order found up to 30\n", "")

    def test_order_not_found_under_a_large_bound(self, capsys):
        # infinite order is read off the scalars, so the bound sets no work
        code, out, _ = run(capsys, "order", "(x1 + x2^2, x2)",
                           "--max-order", "1000000")
        assert (code, out) == (1, "no order found up to 1000000\n")

    @pytest.mark.parametrize("endo,max_order,expected", [
        # a root of order 2^40 with beta0 != 0, where psi^(2^k) carried a
        # dense geometric sum
        ("(z(1099511627776)^3*x1 + x2^2, z(1099511627776)*x2 + 1)", 2 ** 41,
         (0, "order = 1099511627776\n", "")),
        # x2^5 resonates, since z(4)^5 = z(4)
        ("(z(4)*x1 + x2^5, z(4)*x2)", 10 ** 6, (1, "no order found up to 1000000\n", "")),
        # no degree resonates, since z(4)^d != z(8): only d < ord z(4) are tried
        ("(z(8)*x1 + x2^1000000, z(4)*x2 + 1)", 100, (0, "order = 8\n", "")),
    ])
    def test_order_read_off_the_resonances_at_once(self, endo, max_order, expected):
        assert fresh_process("order", endo, f"--max-order={max_order}", timeout=5) == expected

    @pytest.mark.parametrize("endo,max_order,expected", [
        # the scalars' order 15 decides against the bound; with beta0 = 0 and
        # no beta^d = gamma, the rule multiplies no scalars of two towers
        ("(z(3)*x1 + z(4)*x2^2, z(5)*x2)", 10, (1, "no order found up to 10\n", "")),
        ("(z(3)*x1 + z(4)*x2^2, z(5)*x2)", 60, (0, "order = 15\n", "")),
        ("(z(3)*x1, z(5)*x2)", 20, (0, "order = 15\n", "")),
    ])
    def test_order_with_scalars_of_two_towers(self, capsys, endo, max_order, expected):
        assert run(capsys, "order", endo, f"--max-order={max_order}") == expected

    def test_conjugate(self, capsys):
        code, out, _ = run(capsys, "conjugate", "(-x1, -x2)",
                           "--theta", "(x1 + x2^2, x2)")
        assert (code, out) == (0, "(-x1 + -2*x2^2, -x2)\n")

    def test_min_degree(self, capsys):
        code, out, _ = run(capsys, "min-degree", "--p", "2",
                           "--prefix", "1,1,1", "--alpha", "1/8",
                           "--max-degree", "10")
        assert (code, out) == (0, "minimal degree = 5\n")

    def test_min_degree_exhausted(self, capsys):
        code, out, _ = run(capsys, "min-degree", "--p", "2",
                           "--prefix", "1,1,1,1", "--alpha", "1/16",
                           "--max-degree", "8")
        assert (code, out) == (1, "no triangular-affine linearizer up to degree 8\n")

    def test_nonconj_satisfiable(self, capsys):
        code, out, _ = run(capsys, "nonconj-check", "--p", "2",
                           "--prefix", "1,1,1", "--prefix", "4,8,32",
                           "--tail", "zero", "--tail", "zero", "--k0", "0")
        assert code == 0
        assert out == ("CONDITION SATISFIABLE\n"
                       "beta = 2\n"
                       "gamma = 1\n"
                       "holds from k = 0\n")

    def test_nonconj_rejected_candidates(self, capsys):
        # the witness from k=0 fails and k=1 has none; k=2 holds
        code, out, _ = run(capsys, "nonconj-check", "--p", "2",
                           "--prefix", "1,1,1", "--prefix", "1,2,3", "--k0", "0")
        assert code == 0
        assert out == ("CONDITION SATISFIABLE\n"
                       "beta = 1\n"
                       "gamma = 1/3\n"
                       "holds from k = 2\n")

    def test_nonconj_long_zero_prefix(self, capsys):
        # the root search kernel here has 2^20 elements, all absorbed into gamma
        zeros = ",".join(["0"] * 20)
        code, out, _ = run(capsys, "nonconj-check", "--p", "2",
                           "--prefix", zeros, "--tail", "1",
                           "--prefix", zeros, "--tail", "1")
        assert code == 0
        assert out == ("CONDITION SATISFIABLE\n"
                       "beta = 1\n"
                       "gamma = 1\n"
                       "holds from k = 20\n")

    @pytest.mark.parametrize("first,second,beta", [
        ("1,0,1", "1,0,8", "2"), ("1,0,1", "1,0,-8", "-2"),
        ("1,0,0,1", "1,0,0,128", "2")], ids=["t=3", "t=3-negative", "t=7"])
    def test_nonconj_anchors_apart(self, capsys, first, second, beta):
        # anchors k* = 0 and k2 > 1, so beta is a t-th root with t = 2^k2 - 1
        assert run(capsys, "nonconj-check", "--p", "2", "--prefix", first,
                   f"--prefix={second}", "--k0", "0") == (
            0, f"CONDITION SATISFIABLE\nbeta = {beta}\ngamma = 4\n"
               "holds from k = 0\n", "")

    @pytest.mark.parametrize("p", ["3", "7"])
    def test_nonconj_no_rational_root_far_out(self, p):
        # the anchor ratio 2 at k* = 20 needs a rational root of exponent
        # p^21 - p^20, which 2 does not have; ruled out without forming 2^t
        zeros = ",".join(["0"] * 20)
        assert fresh_process("nonconj-check", "--p", p,
                             "--prefix", zeros + ",1,1", "--tail", "1",
                             "--prefix", zeros + ",1,2", "--tail", "2",
                             "--k0", "0", timeout=5) == (
            0, "CONDITION SATISFIABLE\nbeta = 1\ngamma = 1/2\n"
               "holds from k = 21\n", "")

    def test_nonconj_large_k0(self):
        # the anchor exponent 2^1000001 - 2^1000000 is read as 2^k* times a unit
        assert fresh_process("nonconj-check", "--p", "2", "--tail", "1",
                             "--tail", "1", "--k0", "1000000", timeout=5) == (
            0, "CONDITION SATISFIABLE\nbeta = 1\ngamma = 1\n"
               "holds from k = 1000000\n", "")

    def test_nonconj_k0_over_the_budget(self):
        # the search would grow with the bit length of 2^k0: 0.6 s at 10^7
        assert fresh_process("nonconj-check", "--p", "2", "--tail", "1",
                             "--tail", "1", "--k0", "10000000", timeout=5) == (
            2, "", f"error: k0 must be at most {MAX_K0}\n")

    def test_verify_conjugator(self, capsys):
        code, out, _ = run(capsys, "verify-conjugator", "--p", "2",
                           "--prefix", "1,1,1", "--prefix", "4,8,32",
                           "--tail", "zero", "--tail", "zero",
                           "--theta", "(x1, 2*x2)", "--levels", "3")
        assert (code, out) == (0, "OK: conjugator intertwines levels 1..3\n")

    def test_verify_conjugator_wrong_orientation(self, capsys):
        code, out, _ = run(capsys, "verify-conjugator", "--p", "2",
                           "--prefix", "1,1,1", "--prefix", "4,8,32",
                           "--tail", "zero", "--tail", "zero",
                           "--theta", "(x1, x2/2)", "--levels", "3")
        assert (code, out) == (1, "FAIL: conjugator does not intertwine levels 1..3\n")

    @pytest.mark.parametrize("levels", ["5000", str(10 ** 18)])
    def test_verify_conjugator_any_number_of_levels(self, levels):
        # the top level alone decides, and two periods past the prefixes
        assert fresh_process("verify-conjugator", "--p", "2", "--prefix", "1",
                             "--prefix", "1", "--theta", "(x1,x2)", "--levels", levels,
                             timeout=5) == (
            0, f"OK: conjugator intertwines levels 1..{levels}\n", "")

    @pytest.mark.parametrize("theta,b,expected", [
        # beta = 2 is no root of unity, and beta^(2^40+1) would need 2^40 bits
        ("(x1, 2*x2)", "1", (2, "", f"error: beta^{2 ** 40 + 1} over the budget of "
                                    f"{MAX_POWER_BITS} numerator bits\n")),
        # a root of unity raises to any power
        ("(x1, -x2)", "-1", (0, "OK: conjugator intertwines levels 1..41\n", "")),
    ], ids=["over-the-budget", "root-of-unity"])
    def test_verify_conjugator_power_budget(self, theta, b, expected):
        zeros = ",".join(["0"] * 40)
        assert fresh_process("verify-conjugator", "--p", "2", "--prefix", zeros + ",1",
                             "--prefix", f"{zeros},{b}", "--theta", theta,
                             "--levels", "41", timeout=5) == expected

    @pytest.mark.parametrize("flags,theta,expected", [
        # a zero sequence never meets gamma: the verdict holds over C
        pytest.param(("--p", "2", "--prefix", "0", "--prefix", "0"), "(z(3)*x1,x2)",
                     (0, "OK: conjugator intertwines levels 1..2\n", ""), id="ok"),
        pytest.param(("--p", "2", "--prefix", "z(4)", "--prefix", "z(4)"), "(z(3)*x1,x2)",
                     (2, "", "error: mixed primes 3 and 2\n"), id="gamma-first"),
        # a constant term in g fails before any arithmetic
        pytest.param(("--p", "3", "--prefix", "1", "--prefix", "1"), "(z(4)*x1+1,x2)",
                     (1, "FAIL: conjugator does not intertwine levels 1..2\n", ""),
                     id="fail"),
    ])
    def test_verify_conjugator_theta_of_two_towers(self, capsys, flags, theta, expected):
        assert run(capsys, "verify-conjugator", *flags, "--theta", theta,
                   "--levels", "2") == expected

    @pytest.mark.parametrize("argv,expected", [
        (("verify-formula", "--p", "2", "--prefix", "1,0,1",
          "--alpha=1/1099511627776"), GOLDEN_VERIFY),
        (("verify-conjugator", "--p", "2", "--prefix", "1", "--prefix", "1",
          "--theta", "(x1,x2)", "--levels", "40"),
         "OK: conjugator intertwines levels 1..40\n"),
    ], ids=["verify-formula", "verify-conjugator"])
    def test_level_forty_roots(self, capsys, argv, expected):
        # a root of order 2^40 is one term, not a vector of 2^39 coefficients
        assert run(capsys, *argv) == (0, expected, "")

    def test_omega_family(self, capsys):
        code, out, _ = run(capsys, "omega-family", "--count", "3")
        assert code == 0
        assert out == ("sequence 0: tail=[1,0]\n"
                       "sequence 1: tail=[1,0,0]\n"
                       "sequence 2: tail=[1,0,0,0]\n"
                       "pairwise infinite disagreement: 3/3\n")

    def test_linearize_obstruction(self, capsys):
        code, out, _ = run(capsys, "linearize", "--target",
                           "(x1 + x2, x2)", "--max-degree", "5")
        assert (code, out) == (1, "OBSTRUCTION\ndegree = 1\n")

    @pytest.mark.parametrize("bound,expected", [
        # the obstruction is read off the degrees, before any division
        pytest.param("2", (1, "OBSTRUCTION\ndegree = 3\n", ""), id="obstructed"),
        pytest.param("3", (2, "", "error: mixed primes 3 and 2\n"), id="solved"),
    ])
    def test_linearize_target_of_two_towers(self, capsys, bound, expected):
        assert run(capsys, "linearize", "--target", "(z(4)*x1 + z(3)*x2^3, z(4)*x2)",
                   "--max-degree", bound) == expected


class TestInputErrors:
    def test_parse_error_is_exit_two(self, capsys):
        code, out, err = run(capsys, "compose", "(x1", "(x1, x2)")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_missing_value_is_exit_two(self, capsys):
        assert run(capsys, "compose", "(x1, )", "(x1, x2)") == (
            2, "", "error: expected a value but found ')' (line 1, column 6)\n")

    def test_polynomial_entry_points_at_its_variable(self, capsys):
        assert run(capsys, "verify-formula", "--p", "2", "--prefix", "2 + x1",
                   "--alpha", "1/2") == (
            2, "", "error: expected a scalar, found a polynomial (line 1, column 5)\n")

    def test_non_ascii_digit_is_positional_error(self, capsys):
        assert run(capsys, "compose", "(x2^², x2)", "(x1, x2)") == (
            2, "", "error: unexpected character '²' (line 1, column 5)\n")

    @pytest.mark.parametrize("first,column", [
        pytest.param("(" + "1" * 5000 + "*x1, x2)", 2, id="literal"),
        pytest.param("(x1^" + "1" * 5000 + ", x2)", 5, id="exponent"),
    ])
    def test_over_long_integer_is_positional_error(self, capsys, first, column):
        assert run(capsys, "compose", first, "(x1, x2)") == (
            2, "", f"error: integer literal too long (line 1, column {column})\n")

    @pytest.mark.parametrize("alpha,message", [
        pytest.param("1.5", "unexpected character '.' (line 1, column 2)", id="decimal"),
        pytest.param("1_1/4", "unexpected character '_' (line 1, column 2)",
                     id="underscore"),
        pytest.param("٣/٤", "unexpected character '٣' (line 1, column 1)",
                     id="non-ascii-digits"),
        pytest.param("z(8)", "z(8) is not rational", id="root"),
        pytest.param("1/(x1 - x1 + 2)",
                     "division by a non-constant expression (line 1, column 2)",
                     id="cancelling-divisor"),
    ])
    def test_alpha_is_read_by_the_grammar(self, capsys, alpha, message):
        assert run(capsys, "verify-formula", "--p", "2", "--prefix", "1,1",
                   f"--alpha={alpha}") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("alpha", ["3/-4", "(1 + 2)/4"])
    def test_alpha_spelled_as_an_expression(self, capsys, alpha):
        assert run(capsys, "verify-formula", "--p", "2", "--prefix", "1,1",
                   f"--alpha={alpha}") == (0, GOLDEN_VERIFY, "")

    @pytest.mark.parametrize("argv,message", [
        pytest.param(("compose", "(z(1000000000000000003)*x1, x2)", "(x1, x2)"),
                     "1000000000000000003 has no prime factor up to the limit "
                     "1000 (line 1, column 4)", id="root-modulus"),
        pytest.param(("verify-formula", "--p", "1000000000000000003",
                      "--prefix", "1", "--alpha", "1/2"),
                     "1000000000000000003 has no prime factor up to the limit 1000",
                     id="prime-flag"),
        pytest.param(("nonconj-check", "--p", "1009", "--tail", "1", "--tail", "1"),
                     "1009 has no prime factor up to the limit 1000",
                     id="prime-above-limit"),
        pytest.param(("omega-family", "--count", "65"), "count must be at most 64",
                     id="family-count"),
    ])
    def test_over_the_limit_is_one_line_error(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_dense_inverse_over_the_budget_is_one_line_error(self, capsys):
        # 1/(1 + z(2^40)) has 2^39 terms
        assert run(capsys, "compose", "(1/(1 + z(1099511627776))*x1, x2)", "(x1, x2)") == (
            2, "", "error: inverse of a 2-term value in a field of degree 549755813888, "
                   "over the budget of 1024\n")

    def test_linearize_division_over_the_budget_is_one_line_error(self):
        # w = alpha^(2-1) has order 2^40, so 1/(alpha^2 - alpha) would fill a
        # field of degree 2^39: refused before its sum over 2^40 terms
        code, out, err = fresh_process(
            "linearize", "--target",
            "(z(1099511627776)*x1 + x2^2, z(1099511627776)*x2)", "--max-degree", "3",
            timeout=5)
        assert (code, out) == (2, "")
        assert err == ("error: inverse of alpha^2 - alpha in a field of degree "
                       "549755813888, over the budget of 1024\n")

    def test_linearize_division_at_the_budget_is_a_verdict(self, capsys):
        # z(2048): phi = 1024, the budget itself
        code, out, err = run(capsys, "linearize", "--target",
                             "(z(2048)*x1 + x2^2, z(2048)*x2)", "--max-degree", "3")
        assert (code, out.splitlines()[0], err) == (0, "LINEARIZED", "")

    def test_prime_at_the_limit_is_a_verdict(self, capsys):
        assert run(capsys, "verify-formula", "--p", "997", "--prefix", "1",
                   "--alpha", "1/997") == (0, GOLDEN_VERIFY, "")

    @pytest.mark.parametrize("target,message", [
        pytest.param("(x1 + x1*x2, x2)", TARGET_SHAPE, id="shift-involves-x1"),
        pytest.param("(-x1, x2 + 1)", TARGET_SHAPE, id="x2-shifted"),
        pytest.param("(x2, x1)", TARGET_SHAPE, id="swap"),
        pytest.param("(2*x1, 2*x2)", "the x2 scaling must be a root of unity",
                     id="infinite-order-scaling"),
        pytest.param("(2*x1, x2)", TARGET_SHAPE, id="gamma-differs-from-beta"),
    ])
    def test_linearize_shape_errors(self, capsys, target, message):
        assert run(capsys, "linearize", "--target", target, "--max-degree", "2") == (
            2, "", f"error: {message}\n")

    def test_bad_alpha_denominator(self, capsys):
        code, _, err = run(capsys, "verify-formula", "--p", "2",
                           "--prefix", "1", "--alpha", "1/3")
        assert code == 2
        assert "denominator" in err

    def test_non_triangular_theta(self, capsys):
        code, _, err = run(capsys, "invert", "(x2, x1)")
        assert code == 2
        assert "triangular" in err

    def test_single_prefix_flag_rejected(self, capsys):
        code, _, err = run(capsys, "nonconj-check", "--p", "2",
                           "--prefix", "1", "--tail", "zero", "--tail", "zero")
        assert code == 2
        assert "twice" in err

    @pytest.mark.parametrize("argv", [
        pytest.param(("verify-formula", "--p", "2", "--prefix", "1",
                      "--prefix", "1,1", "--alpha", "1/2"), id="verify-formula"),
        pytest.param(("min-degree", "--p", "2", "--tail", "1", "--tail", "1",
                      "--alpha", "1/2", "--max-degree", "3"), id="min-degree"),
    ])
    def test_repeated_sequence_flag_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "give --prefix and --tail once (or not at all)" in err

    @pytest.mark.parametrize("argv,field", [
        pytest.param(("verify-formula", "--p", "2", "--prefix", "1"), "alpha",
                     id="alpha"),
        pytest.param(("min-degree", "--p", "2", "--prefix", "1", "--alpha", "1/2"),
                     "max_degree", id="max-degree"),
        pytest.param(("verify-conjugator", "--p", "2", "--prefix", "1",
                      "--prefix", "1"), "theta", id="theta"),
    ])
    def test_missing_field_is_named(self, capsys, argv, field):
        message = f"error: manifest field {field!r} is missing\n"
        assert run(capsys, *argv) == (2, "", message)

    @pytest.mark.parametrize("alpha", ["1/2", "1/4"])
    def test_foreign_prime_entry(self, capsys, alpha):
        code, out, err = run(capsys, "verify-formula", "--p", "2",
                             "--prefix", "z(3)", "--alpha", alpha)
        assert (code, out, err) == (2, "", "error: entry z(3) lives over p=3, not 2\n")

    @pytest.mark.parametrize("argv", [
        pytest.param(("verify-formula", "--prefix", "5,7,z(3)", "--tail", "9",
                      "--alpha", "1/4"), id="one-sequence"),
        pytest.param(("nonconj-check", "--prefix", "1", "--prefix", "1"),
                     id="two-sequences"),
    ])
    def test_sequence_flags_need_p(self, capsys, monkeypatch, argv):
        # without --p the sequences come from stdin, where these flags have no say
        stdin = io.StringIO('{"prime":2,"a":{"prefix":["1","1"]},"alpha":"1/2"}')
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: --prefix and --tail need --p\n"
        assert stdin.tell() == 0

    @pytest.mark.parametrize("argv,column", [
        pytest.param(("compose", "(" + "(" * 250 + "x1" + ")" * 250 + ", x2)",
                      "(x1, x2)"), 102, id="parentheses"),
        pytest.param(("invert", "(x1, " + "-(" * 250 + "x2" + ")" * 250 + ")"),
                     207, id="minus-parentheses"),
        pytest.param(("verify-formula", "--p", "2", "--prefix",
                      "1," + "(" * 400 + "1" + ")" * 400, "--alpha", "1/2"),
                     101, id="prefix-entry"),
    ])
    def test_deep_nesting_is_one_line_error(self, capsys, argv, column):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: parentheses nested deeper than 100 "
                       f"(line 1, column {column})\n")

    @pytest.mark.parametrize("argv,expected", [
        pytest.param(("compose", "(x1, " + "-" * 1001 + "x2)", "(x1, x2)"),
                     "(x1, -x2)\n", id="compose"),
        pytest.param(("verify-formula", "--p", "2", "--prefix=" + "-" * 1000 + "1,1",
                      "--alpha", "1/2"), GOLDEN_VERIFY,
                     id="prefix-entry"),
    ])
    def test_long_minus_run_is_a_verdict(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize("argv", [
        pytest.param(("nonconj-check", "--p", "2", "--prefix", "1,1",
                      "--prefix", "1," + "7" * 3000, "--k0", "0"), id="nonconj-check"),
        pytest.param(("linearize", "--target",
                      f"(-x1 - {'7' * 3000}*{'7' * 3000}*x2^2, -x2)",
                      "--max-degree", "2"), id="linearize"),
        # a valid map whose coefficient N^2 has about 5,000 digits
        pytest.param(("compose", f"({'7' * 2500}*x1, x2)", f"({'7' * 2500}*x1, x2)"),
                     id="compose"),
    ])
    def test_unprintable_value_leaves_no_partial_verdict(self, capsys, argv):
        # the output holds a value over Python's int-to-str digit limit; the
        # one-line message names that limit, not a Python setting
        assert run(capsys, *argv) == (2, "", TOO_LONG_TO_PRINT)
        assert "sys." not in TOO_LONG_TO_PRINT

    @pytest.mark.parametrize("argv,column", [
        pytest.param(("compose", "((1+z(7))^10000000*x1, x2)", "(x1, x2)"), 11,
                     id="compose"),
        pytest.param(("verify-formula", "--p", "2", "--prefix", "1,3^30000000",
                      "--alpha", "1/2"), 3, id="prefix-entry"),
    ])
    def test_scalar_power_over_the_budget_is_one_line_error(self, capsys, argv, column):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: scalar power over the budget of {MAX_POWER_BITS} "
                       f"numerator bits (line 1, column {column})\n")

    @pytest.mark.parametrize("product,first,second", [
        pytest.param("(z(3)*x1 + z(3)*x2 + z(5)*x1*x2)", 3, 5, id="cancelling-first"),
        pytest.param("(z(5)*x1*x2 + z(3)*x1 + z(3)*x2)", 5, 3, id="foreign-first"),
    ])
    def test_two_tower_product_fails_in_every_term_order(self, capsys, product,
                                                          first, second):
        # x1*x2 collects z(3) - z(3) and z(5) into one sum, whatever the order
        code, out, err = run(capsys, "compose", f"({product}*(x2 - x1 + 1), x2)",
                             "(x1, x2)")
        assert (code, out) == (2, "")
        assert err == f"error: mixed primes {first} and {second} (line 1, column 34)\n"

    @pytest.mark.parametrize("f1,column", [
        pytest.param("(z(4)*x2 + z(9))^2", 18, id="power"),
        pytest.param("(z(4)*x2)*(x2 + z(9))", 11, id="product"),
    ])
    def test_two_tower_power_is_placed_like_a_product(self, capsys, f1, column):
        code, out, err = run(capsys, "compose", f"({f1}, x2)", "(x1, x2)")
        assert (code, out) == (2, "")
        assert err == f"error: mixed primes 2 and 3 (line 1, column {column})\n"

    def test_missing_subcommand_is_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


MIN_DEGREE_MANIFEST = {"prime": 2, "a": {"prefix": ["1", "1", "1"]},
                       "alpha": "1/8", "max_degree": 10}
CONJUGATOR_MANIFEST = {"prime": 2, "a": {"prefix": ["1", "1", "1"]},
                       "b": {"prefix": ["4", "8", "32"], "tail": "zero"},
                       "theta": "(x1, 2*x2)", "levels": 3}


class TestManifestInput:
    @pytest.mark.parametrize("argv,manifest,flags,expected", [
        pytest.param(("verify-formula",),
                     {"prime": 2, "a": {"prefix": ["1", "1"], "tail": "zero"},
                      "alpha": "1/2"},
                     ("--p", "2", "--prefix", "1,1", "--alpha", "1/2"),
                     (0, GOLDEN_VERIFY), id="verify-formula"),
        pytest.param(("nonconj-check",),
                     {"prime": 2, "a": {"prefix": [], "tail": ["1"]},
                      "b": {"prefix": [], "tail": ["1", "0"]}, "k0": 0},
                     ("--p", "2", "--tail", "1", "--tail", "1,0", "--k0", "0"),
                     (1, GOLDEN_NONCONJ), id="nonconj-check"),
        pytest.param(("min-degree",), MIN_DEGREE_MANIFEST,
                     ("--p", "2", "--prefix", "1,1,1", "--alpha", "1/8",
                      "--max-degree", "10"),
                     (0, "minimal degree = 5\n"), id="min-degree"),
        pytest.param(("verify-conjugator",), CONJUGATOR_MANIFEST,
                     ("--p", "2", "--prefix", "1,1,1", "--prefix", "4,8,32",
                      "--theta", "(x1, 2*x2)", "--levels", "3"),
                     (0, "OK: conjugator intertwines levels 1..3\n"),
                     id="verify-conjugator"),
        pytest.param(("min-degree", "--alpha", "1/4"), MIN_DEGREE_MANIFEST,
                     ("--p", "2", "--prefix", "1,1,1", "--alpha", "1/4",
                      "--max-degree", "10"),
                     (0, "minimal degree = 3\n"), id="alpha-flag-overrides"),
    ])
    def test_stdin_matches_flags(self, capsys, monkeypatch, argv, manifest,
                                 flags, expected):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(manifest)))
        code, out, _ = run(capsys, *argv)
        assert (code, out) == expected
        code, out, _ = run(capsys, argv[0], *flags)
        assert (code, out) == expected

    @pytest.mark.parametrize("command,text,field", [
        pytest.param("verify-formula", "not json", None, id="not-json"),
        pytest.param("verify-formula",
                     '{"prime":2,"a":{"prefix":[1]},"alpha":"1/2"}', "prefix",
                     id="prefix-number"),
        pytest.param("verify-formula",
                     '{"prime":"x","a":{"prefix":["1"]},"alpha":"1/2"}', "prime",
                     id="prime-string"),
        pytest.param("verify-formula", '{"prime":2,"a":[1],"alpha":"1/2"}', "a",
                     id="a-list"),
        pytest.param("verify-formula",
                     '{"prime":2,"a":{"prefix":["1"]},"alpha":[1]}', "alpha",
                     id="alpha-list"),
        pytest.param("min-degree",
                     '{"prime":2,"a":{"prefix":["1"]},"alpha":"1/2",'
                     '"max_degree":"5"}', "max_degree", id="max-degree-string"),
        pytest.param("nonconj-check",
                     '{"prime":2,"a":{"tail":["1"]},"b":{"tail":["1"]},"k0":"0"}',
                     "k0", id="k0-string"),
        pytest.param("verify-conjugator",
                     '{"prime":2,"a":{"tail":["1"]},"b":{"tail":["1"]},'
                     '"theta":"(x1, x2)","levels":"2"}', "levels",
                     id="levels-string"),
        pytest.param("verify-conjugator",
                     '{"prime":2,"a":{"tail":["1"]},"b":{"tail":["1"]},"theta":5}',
                     "theta", id="theta-number"),
        pytest.param("verify-formula",
                     '{"prime":2,"a":{"prefix":["1"],"tail":5},"alpha":"1/2"}',
                     "tail", id="tail-number"),
        pytest.param("verify-formula",
                     '{"prime":true,"a":{"prefix":["1"]},"alpha":"1/2"}', "prime",
                     id="prime-boolean"),
        pytest.param("verify-formula",
                     '{"a":{"prime":2,"prefix":["1"]},"alpha":"1/2"}', "prime",
                     id="prime-missing"),
    ])
    def test_bad_manifest_json(self, capsys, monkeypatch, command, text, field):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, command)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        if field is not None:
            assert repr(field) in err

    def test_sequence_prime_is_the_top_level_one(self, capsys, monkeypatch):
        # a "prime" inside "a" is an unknown key: the run is over p = 2
        text = ('{"prime": 2, "a": {"prime": 3, "prefix": ["1", "1"]}, '
                '"alpha": "1/3"}')
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, "verify-formula") == (
            2, "", "error: exponent denominator must be a power of 2, got 1/3\n")

    def test_deep_manifest_is_one_line_error(self, capsys, monkeypatch):
        # deeper than any Python recursion limit
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100_000 + "]" * 100_000))
        assert run(capsys, "verify-formula") == (
            2, "", "error: manifest nested too deeply to read\n")

    def test_long_manifest_integer_is_one_line_error(self, capsys, monkeypatch):
        text = '{"prime": ' + "7" * 5000 + ', "a": {"prefix": ["1"]}, "alpha": "1/2"}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, "verify-formula") == (
            2, "", "error: manifest integer too long to read (over "
                   f"{sys.get_int_max_str_digits()} digits)\n")

    def test_manifest_prime_above_the_limit(self, capsys, monkeypatch):
        text = '{"prime": 1000000000000000003, "a": {"prefix": ["1"]}, "alpha": "1/2"}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, "verify-formula") == (
            2, "", "error: 1000000000000000003 has no prime factor up to the limit 1000\n")


SCALARS = st.sampled_from(["0", "1", "2", "3/2", "1/3"]
                          + [f"z({m})" for m in (1, 2, 3, 4, 5, 8, 9)])
ATOMS = st.sampled_from(["x1", "x2"]) | SCALARS


@st.composite
def expressions(draw, depth=3, atoms=3, leaves=ATOMS):
    """A grammar string with at most `depth` nested groups or minus signs and
    at most `atoms` atoms drawn from `leaves`, each raised to at most ^3."""
    shapes = ["atom"]
    if depth:
        shapes += ["group", "minus"] + (["binary"] if atoms > 1 else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "atom":
        return draw(leaves) + draw(st.sampled_from(["", "^0", "^1", "^2", "^3"]))
    if shape == "group":
        return "(" + draw(expressions(depth - 1, atoms, leaves)) + ")"
    if shape == "minus":
        return "-" + draw(expressions(depth - 1, atoms, leaves))
    left = draw(st.integers(1, atoms - 1))
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    return (draw(expressions(depth - 1, left, leaves)) + f" {op} "
            + draw(expressions(depth - 1, atoms - left, leaves)))


@st.composite
def plane_maps(draw, shapes=("any", "triangular", "target")):
    """Any pair of expressions, or one spelled in the triangular-affine shape
    (gamma*x1 + g(x2), beta*x2 + beta0), or the linearize target shape
    (alpha*x1 + S(x2), alpha*x2) with a root of unity alpha; one of `shapes`."""
    shape = draw(st.sampled_from(shapes))
    if shape == "any":
        return f"({draw(expressions())}, {draw(expressions())})"
    scalar = expressions(depth=1, atoms=2, leaves=SCALARS)
    g = draw(expressions(leaves=st.just("x2") | SCALARS))
    if shape == "triangular":
        return f"({draw(scalar)}*x1 + {g}, {draw(scalar)}*x2 + {draw(scalar)})"
    alpha = draw(st.sampled_from(["1", "-1", "z(4)", "z(8)^3", "z(3)", "z(9)^2", "z(5)"]))
    return f"({alpha}*x1 + {g}, {alpha}*x2)"


# Deeper than the parser's nesting limit, or a long run of minus signs.  Up to
# 2,000 levels, since Hypothesis raises the recursion limit while a test runs.
DEEP = st.builds(lambda n, opener, atom: opener * n + atom + ")" * opener.count("(") * n,
                 st.integers(150, 2000), st.sampled_from(["(", "-(", "-"]), ATOMS)


SMALL_RATIONALS = st.sampled_from(["0", "1", "-1", "2", "-3", "1/2", "-2/3"])


def tower_entries(p):
    """Sequence entries mostly of the p-power tower (roots of order up to p^3,
    alone or scaled by a small rational) or small rationals, and now and then
    a scalar of another prime."""
    roots = st.builds(lambda n, j: f"z({p ** n})^{j}", st.integers(1, 3),
                      st.integers(0, p ** 3))
    scaled = st.builds(lambda c, root: f"{c}*{root}", SMALL_RATIONALS, roots)
    return st.one_of(roots, scaled, SMALL_RATIONALS, roots, scaled, SCALARS)


@st.composite
def sequence_flags(draw, count):
    """--p, and --prefix and --tail once per sequence, each of 0-4 entries
    (a tail may be "zero"); every flag as --flag=value, since a value such as
    -1 would otherwise read as an option."""
    p = draw(st.sampled_from([2, 3, 5]))
    entries = st.lists(tower_entries(p), max_size=4).map(",".join)
    flags = [f"--p={p}"]
    for _ in range(count):
        flags.append(f"--prefix={draw(entries)}")
        flags.append(f"--tail={draw(st.just('zero') | entries)}")
    return p, flags


TRIANGULAR = ("triangular", "target")


@st.composite
def alpha_flag(draw, p):
    """--alpha as j/p^n, a root of level n at most 3."""
    return f"--alpha={draw(st.integers(-p ** 3, p ** 3))}/{p ** draw(st.integers(0, 3))}"


# verify-conjugator reads one level and at most two periods past the
# prefixes and deg g, whatever the number of levels
LEVELS = st.integers(0, 10 ** 18)


@st.composite
def cli_requests(draw):
    command = draw(st.sampled_from(["compose", "invert", "conjugate", "linearize",
                                    "nonconj-check", "min-degree", "verify-formula",
                                    "verify-conjugator", "order"]))
    if command == "nonconj-check":
        _, flags = draw(sequence_flags(2))
        return [command, *flags, f"--k0={draw(st.integers(0, 6))}"]
    if command == "min-degree":
        p, flags = draw(sequence_flags(1))
        return [command, *flags, draw(alpha_flag(p)),
                f"--max-degree={draw(st.integers(0, 130))}"]
    if command == "verify-formula":
        p, flags = draw(sequence_flags(1))
        return [command, *flags, draw(alpha_flag(p))]
    if command == "verify-conjugator":
        _, flags = draw(sequence_flags(2))
        return [command, *flags, f"--theta={draw(plane_maps(TRIANGULAR))}",
                f"--levels={draw(LEVELS)}"]
    if command == "order":
        return [command, draw(plane_maps()), f"--max-order={draw(st.integers(0, 64))}"]
    first, second = draw(plane_maps()), draw(plane_maps())
    if draw(st.integers(0, 3)) == 0:
        deep = draw(DEEP)
        first = draw(st.sampled_from([f"({deep}, x2)", f"(x1, {deep})"]))
    if command == "compose":
        return [command, first, second]
    if command == "invert":
        return [command, first]
    if command == "conjugate":
        return [command, second, f"--theta={first}"]
    return [command, f"--target={first}", f"--max-degree={draw(st.integers(0, 6))}"]


MANIFEST_SEQUENCES = {"verify-formula": ("a",), "min-degree": ("a",),
                      "nonconj-check": ("a", "b"), "verify-conjugator": ("a", "b")}
# any JSON value; integers stay within -3..3, since a field that lands on
# "k0" makes nonconj-check's work grow with the bit length of p^k0
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


@st.composite
def stdin_manifests(draw):
    """(command, stdin text): a valid manifest for a sequence command, or a
    JSON value that is not an object, or a manifest with one field replaced
    by a value of any type, or one nested deeper than the decoder goes."""
    command = draw(st.sampled_from(sorted(MANIFEST_SEQUENCES)))
    p = draw(st.sampled_from([2, 3, 5]))
    entries = st.lists(tower_entries(p), max_size=4)
    manifest = {"prime": p}
    for key in MANIFEST_SEQUENCES[command]:
        manifest[key] = {"prefix": draw(entries), "tail": draw(st.just("zero") | entries)}
    if command in ("verify-formula", "min-degree"):
        manifest["alpha"] = draw(alpha_flag(p)).removeprefix("--alpha=")
    if command == "min-degree":
        manifest["max_degree"] = draw(st.integers(0, 130))
    if command == "nonconj-check":
        manifest["k0"] = draw(st.integers(0, 6))
    if command == "verify-conjugator":
        manifest["theta"] = draw(plane_maps(TRIANGULAR))
        manifest["levels"] = draw(LEVELS)
    shape = draw(st.sampled_from(["valid", "non-object", "wrong-type", "deep"]))
    if shape == "non-object":
        manifest = draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    elif shape == "wrong-type":
        key = draw(st.sampled_from(MANIFEST_SEQUENCES[command]))
        record = draw(st.sampled_from([manifest, manifest[key]]))
        record[draw(st.sampled_from(sorted(record)))] = draw(JSON_VALUES)
    elif shape == "deep":
        depth = draw(st.integers(500, 100_000))
        manifest[draw(st.sampled_from(sorted(manifest)))] = "@"
        return command, json.dumps(manifest).replace('"@"', "[" * depth + "]" * depth)
    return command, json.dumps(manifest)


def assert_verdict_or_one_line_error(code, captured):
    assert code in (0, 1, 2)
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    else:
        # one report: some text, then exactly one newline
        assert captured.out.strip() and captured.out.endswith("\n")
        assert not captured.out.endswith("\n\n")
        assert captured.err == ""


# about 35 examples for each of the nine commands
@settings(max_examples=315, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_requests())
def test_generated_requests_end_in_verdict_or_one_line_error(capsys, argv):
    code = main(argv)
    assert_verdict_or_one_line_error(code, capsys.readouterr())


# about 50 examples for each of the four sequence commands
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request=stdin_manifests())
def test_stdin_manifests_end_in_verdict_or_one_line_error(capsys, monkeypatch, request):
    command, text = request
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main([command])
    assert_verdict_or_one_line_error(code, capsys.readouterr())


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "planeaut.cli", "verify-formula", "--p", "2",
         "--prefix", "1,1", "--alpha", "1/2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_VERIFY


def fresh_process(*argv, timeout=None):
    proc = subprocess.run([sys.executable, "-m", "planeaut.cli", *argv],
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


# 20,000 terms in the printer's form, short enough for one argv entry
LONG_CHAIN = "+".join(["z(8)", "2"] * 10_000)
# c*x2^k for k < 10,000, c cycling through 1, -1, 1, 2 and z(8): 115 KB printed
LONG_POLY = SparsePoly({(0, k): CycNum.zeta(2, 3) if k % 5 == 4 else (1, -1, 1, 2)[k % 5]
                        for k in range(10_000)})


class TestLongLiterals:
    """Each literal reads, or fails, in time linear in its length."""

    def test_chain(self):
        assert fresh_process("verify-formula", "--p", "2", "--prefix", LONG_CHAIN,
                             "--alpha", "1/2", timeout=5) == (0, GOLDEN_VERIFY, "")

    def test_chain_times_a_variable(self):
        # the scalar chain stops at '*', and the chain reader reads every
        # term, the last one 2*x1
        assert fresh_process("compose", f"({LONG_CHAIN}*x1, x2)", "(x1, x2)",
                             timeout=5) == (0, "(19998 + 10000*z(8) + 2*x1, x2)\n", "")

    def test_printed_polynomial(self):
        # 10,000 terms in the printer's form, read back in one match
        poly = str(LONG_POLY)
        assert fresh_process("compose", f"({poly}, x2)", "(x1, x2)",
                             timeout=5) == (0, f"({poly}, x2)\n", "")

    def test_declined_polynomial(self):
        # the chain reader matches 10,000 terms and declines at the last
        # '*x1', so the descent reads them all, into one term map
        last = SparsePoly.monomial(0, 9999, LONG_POLY.coefficient(0, 9999))
        value = LONG_POLY + last * (SparsePoly.monomial(2, 0) - 1)
        assert fresh_process("compose", f"({LONG_POLY}*x1*x1, x2)", "(x1, x2)",
                             timeout=5) == (0, f"({value}, x2)\n", "")

    def test_chain_of_distinct_denominators(self):
        # 1/1*x2 + ... + 1/10000*x2: one x2 sum over one denominator
        chain = "+".join(f"1/{k}*x2" for k in range(1, 10001))
        assert fresh_process("order", f"(x1 + {chain}, x2)", timeout=5) == (
            1, "no order found up to 256\n", "")

    def test_digit_run_before_a_name(self):
        assert fresh_process("verify-formula", "--p", "2", "--prefix", "1" * 4000 + "x",
                             "--alpha", "1/2", timeout=5) == (
            2, "", "error: unexpected trailing input 'x' (line 1, column 4001)\n")


class TestParserReuse:
    """main reads a well-formed call with no parser, and any other with
    argparse's full tree, built on the first such call and reused; no call
    may see what an earlier one parsed."""

    NONCONJ = ("nonconj-check", "--p", "2", "--tail", "1", "--tail", "1,0")
    VERIFY = ("verify-formula", "--p", "2", "--prefix", "1,1", "--alpha", "1/2")

    def test_append_flags_start_empty(self, capsys):
        # the first call appends two --tail values, the second one --prefix;
        # a leftover --tail would make the second a two-sequence error
        for argv in (self.NONCONJ, self.VERIFY, self.NONCONJ):
            assert run(capsys, *argv) == fresh_process(*argv)

    def test_rejected_call_leaves_no_state(self, capsys):
        expected = run(capsys, *self.VERIFY)
        with pytest.raises(SystemExit) as exc:
            main(["verify-formula", "--p", "2", "--tail", "1", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *self.VERIFY) == expected == fresh_process(*self.VERIFY)

    def test_built_once_and_not_at_import(self):
        script = (
            "import argparse, io, contextlib\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(k.get('prog'))\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import planeaut.cli as cli\n"
            "print(len(built))\n"
            f"for argv in {[self.VERIFY, self.VERIFY, self.NONCONJ, self.NONCONJ]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(list(argv))\n"
            "    print(built)\n"
            "for argv in (['bogus'], ['verify-formula', '--bogus']):\n"
            "    with contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            cli.main(argv)\n"
            "        except SystemExit:\n"
            "            pass\n"
            "    print(len(built))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        at_import, *calls, fallback, again = proc.stdout.splitlines()
        assert at_import == "0"
        # a well-formed request builds no parser
        assert calls == ["[]"] * 4
        # the full tree (the top parser and one subparser for each of the
        # ten commands) is built on the first request that falls back to it
        assert int(fallback) == 1 + 10 and again == fallback


# the stdlib modules that a rational or a manifest would pull in (fractions
# brings decimal and numbers), and argparse with its gettext
HEAVY_MODULES = {"fractions", "decimal", "json", "argparse", "gettext"}
SRC = str(Path(planeaut.__file__).resolve().parent.parent)
# one flag-form request per command, each taking its rationals through the
# field (root splits, rational roots, exponents), then an exit-2 error
FLAG_FORM_REQUESTS = [
    (["compose", "(x1 + 1/2*x2^2, x2)", "(z(4)*x1, x2)"], 0),
    (["invert", "(2*x1 + x2^2, 1/3*x2 + 1)"], 0),
    (["order", "(z(8)*x1 + x2^3, z(4)*x2)"], 0),
    (["conjugate", "(-x1, -x2)", "--theta", "(x1 + x2^2, x2)"], 0),
    (["verify-formula", "--p", "2", "--prefix", "1,z(8)", "--tail", "1/2",
      "--alpha", "3/8"], 0),
    (["linearize", "--target", "(-x1 - 2*x2^2, -x2)", "--max-degree", "2"], 0),
    (["min-degree", "--p", "3", "--prefix", "1,0,z(9)", "--alpha", "2/27",
      "--max-degree", "40"], 0),
    (["nonconj-check", "--p", "2", "--prefix", "1,1", "--prefix", "8,16", "--k0", "0"], 0),
    (["verify-conjugator", "--p", "2", "--prefix", "1", "--prefix", "1",
      "--theta", "(x1, x2)"], 0),
    (["omega-family", "--count", "3"], 0),
    (["verify-formula", "--p", "2", "--prefix", "1", "--alpha", "1/3"], 2),
]


def equals_form(argv):
    """argv with each flag and its value joined as --flag=value."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def isolated_run(body, stdin=""):
    """stdout of `body` run by `python -I` on this checkout's package, after
    `before` holds the modules the bare interpreter loaded."""
    script = (f"import contextlib, io, sys\nsys.path.insert(0, {SRC!r})\n"
              f"before = set(sys.modules)\n{body}")
    proc = subprocess.run([sys.executable, "-I", "-c", script], input=stdin,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportFootprint:
    """Rationals are field elements on every request path, and a well-formed
    request is read with no parser: neither the import nor a flag-form
    request loads fractions, decimal, json, argparse or gettext."""

    def test_flag_form_requests_load_none(self):
        # each request twice: --flag value, then --flag=value
        requests = [spell(argv) for spell in (list, equals_form)
                    for argv, _ in FLAG_FORM_REQUESTS]
        out = isolated_run(
            "import planeaut.cli as cli\n"
            "print(sorted(set(sys.modules) - before))\n"
            "codes = []\n"
            f"for argv in {requests!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        codes.append(cli.main(argv))\n"
            "print(codes)\n"
            "print(sorted(set(sys.modules) - before))\n")
        at_import, codes, after = out.splitlines()
        assert codes == str([code for _, code in FLAG_FORM_REQUESTS] * 2)
        assert "'planeaut.cli'" in at_import
        assert not HEAVY_MODULES & set(literal_eval(at_import))
        assert not HEAVY_MODULES & set(literal_eval(after))

    def test_argparse_error_prints_argparse_text(self):
        out = isolated_run(
            "import planeaut.cli as cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            "    try:\n"
            "        cli.main(['order', '(x1, x2)', '--max-order', 'ten'])\n"
            "    except SystemExit as exc:\n"
            "        print(exc.code)\n"
            "print(repr(err.getvalue()))\n"
            "print('argparse' in sys.modules)\n")
        code, err, loaded = out.splitlines()
        assert (code, loaded) == ("2", "True")
        assert literal_eval(err).splitlines() == [
            "usage: planeaut order [-h] [--max-order MAX_ORDER] endo",
            "planeaut order: error: argument --max-order: invalid int value: 'ten'"]

    def test_stdin_manifest_imports_json_on_use(self):
        manifest = {"prime": 2, "a": {"prefix": ["1", "z(8)"], "tail": ["1/2"]},
                    "alpha": "3/8"}
        out = isolated_run(
            "import planeaut.cli as cli\n"
            "print('json' in sys.modules)\n"
            "code = cli.main(['verify-formula'])\n"
            "print(code, 'json' in sys.modules)\n", stdin=json.dumps(manifest))
        assert out.splitlines() == ["False", GOLDEN_VERIFY.rstrip("\n"), "0 True"]


def parse_outcome(capsys, parse, argv):
    """(namespace fields or ("exit", code), stdout, stderr) of one parse."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


DISPATCH_ARGVS = [
    pytest.param([], id="no-command"),
    pytest.param(["-h"], id="help"),
    pytest.param(["compose", "-h"], id="command-help"),
    pytest.param(["bogus", "(x1, x2)"], id="unknown-command"),
    pytest.param(["compose", "(x1, x2)"], id="missing-positional"),
    pytest.param(["invert", "(x1, x2)", "(x1, x2)"], id="extra-positional"),
    pytest.param(["order", "(x1, x2)", "--bogus"], id="unknown-flag"),
    pytest.param(["order", "(x1, x2)", "--max-order", "ten"], id="bad-int"),
    pytest.param(["omega-family", "--count", "2", "--count", "3"], id="repeated-count"),
    pytest.param(["order", "(x1, x2)", "--max-order=5"], id="flag-equals-value"),
    pytest.param(["verify-formula", "--p=2", "--prefix=1,1", "--alpha=1/2"],
                 id="flags-equals-values"),
    pytest.param(["order", "(x1, x2)", "--max", "5"], id="abbreviated-flag"),
    pytest.param(["compose", "--", "(x1, x2)", "(x1, x2)"], id="double-dash"),
    pytest.param(["linearize", "--target"], id="flag-without-value"),
    pytest.param(["compose", "-x1", "(x1, x2)"], id="dash-positional"),
    # argparse reads it as [] on Python 3.12.1 and before, and as '--' on 3.13
    pytest.param(["conjugate", "(x1, x2)", "--theta=--"], id="equals-double-dash"),
]


# argument values: well-formed ones, and ones that start with '-', are no
# int, or are int() only after stripping or reading '_' and '+'
GOOD_VALUES = st.sampled_from(["(x1, x2)", "(x1 + 1/2*x2^2, x2)", "1,z(8)", "zero",
                               "1/2", ""])
INT_VALUES = st.integers(0, 300).map(str)
ODD_VALUES = st.sampled_from(["-1", "-x1", "-", "--", "-h", "ten", " 4", "+5",
                              "1_0", "2.0", "٣"])
STRAYS = st.sampled_from(["-h", "--help", "--", "--bogus", "-x", "--=1"])


@st.composite
def table_argvs(draw):
    """argv for one command of COMMANDS.  Half of them are well-formed: the
    command, its positionals, each flag given any number of times (required
    ones at least once), as --flag value or --flag=value, all in any order.
    The other half also abbreviate flags or leave out their values, take odd
    values, miss or repeat positionals, add a stray -h, '--' or unknown flag,
    or have a missing or unknown command."""
    name, _, _, arguments = draw(st.sampled_from(COMMANDS))
    clean = draw(st.booleans())
    pieces = []
    for argument, keywords in arguments:
        good = INT_VALUES if keywords.get("type") is int else GOOD_VALUES
        value = good if clean else st.one_of(good, good, good, ODD_VALUES)
        if not argument.startswith("-"):
            count = 1 if clean else draw(st.sampled_from([1, 1, 1, 0, 2]))
            pieces += [[draw(value)] for _ in range(count)]
            continue
        least = 1 if clean and keywords.get("required") else 0
        for _ in range(draw(st.sampled_from([least, least, 1, 2, 3]))):
            spelled = argument if clean else draw(st.sampled_from([argument] * 6 + [
                argument[:k] for k in range(3, len(argument))]))
            forms = ["separate", "equals"] + ([] if clean else ["bare"])
            form = draw(st.sampled_from(forms))
            pieces.append({"separate": [spelled, draw(value)],
                           "equals": [f"{spelled}={draw(value)}"],
                           "bare": [spelled]}[form])
    if not clean:
        pieces += [[draw(STRAYS)] for _ in range(draw(st.sampled_from([0] * 4 + [1, 2])))]
    head = [name] if clean else draw(st.sampled_from([[name]] * 8 + [[], ["bogus"]]))
    return head + [arg for piece in draw(st.permutations(pieces)) for arg in piece]


class TestDispatch:
    """main reads a well-formed argv straight from COMMANDS and any other
    with argparse's full parser; either way it must parse, print and exit
    exactly as build_parser().parse_args does."""

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS)
    def test_same_parse_as_the_full_parser(self, capsys, argv):
        expected = parse_outcome(capsys, build_parser().parse_args, argv)
        assert parse_outcome(capsys, _parse_args, argv) == expected
        if isinstance(expected[0], tuple):
            # main itself exits with the same code and text
            assert parse_outcome(capsys, main, argv) == expected

    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table_argvs())
    def test_table_argvs_parse_as_the_full_parser(self, capsys, argv):
        expected = parse_outcome(capsys, build_parser().parse_args, argv)
        assert parse_outcome(capsys, _parse_args, argv) == expected


@pytest.mark.parametrize("argv", [
    pytest.param(["linearize", "--target=--", "--max-degree", "2"], id="exact"),
    pytest.param(["linearize", "--tar=--", "--max-degree", "2"], id="abbreviated"),
    pytest.param(["conjugate", "(x1, x2)", "--theta=--"], id="theta"),
    pytest.param(["verify-formula", "--p=2", "--prefix=--", "--alpha=1/2"], id="append"),
])
def test_double_dash_value_is_a_one_line_error(argv):
    """--name=-- hands the handler the string '--' on every Python, read
    straight from the table or by argparse (which up to 3.12.1 would hand it
    []), so the request ends in the one-line parse error, no traceback."""
    code, out, err = fresh_process(*argv, timeout=60)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1

"""CLI commands: golden transcripts, exit codes, manifest input."""

import io
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from planeaut.cli import main


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

    def test_invert(self, capsys):
        code, out, _ = run(capsys, "invert", "(x1 + x2^2 + x2^3, x2)")
        assert code == 0
        assert out == "(x1 + -x2^2 + -x2^3, x2)\n"

    def test_order_found(self, capsys):
        code, out, _ = run(capsys, "order", "(-x1 - 2*x2^2, -x2)")
        assert (code, out) == (0, "order = 2\n")

    def test_order_not_found(self, capsys):
        code, out, _ = run(capsys, "order", "(x1 + x2^2, x2)",
                           "--max-order", "10")
        assert (code, out) == (1, "no order found up to 10\n")

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


class TestInputErrors:
    def test_parse_error_is_exit_two(self, capsys):
        code, out, err = run(capsys, "compose", "(x1", "(x1, x2)")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_missing_value_is_exit_two(self, capsys):
        assert run(capsys, "compose", "(x1, )", "(x1, x2)") == (
            2, "", "error: expected a value but found ')' (line 1, column 6)\n")

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
def plane_maps(draw):
    """Any pair of expressions, or one spelled in the triangular-affine shape
    (gamma*x1 + g(x2), beta*x2 + beta0), or the linearize target shape
    (alpha*x1 + S(x2), alpha*x2) with a root of unity alpha."""
    shape = draw(st.sampled_from(["any", "triangular", "target"]))
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


@st.composite
def cli_requests(draw):
    first, second = draw(plane_maps()), draw(plane_maps())
    if draw(st.integers(0, 3)) == 0:
        deep = draw(DEEP)
        first = draw(st.sampled_from([f"({deep}, x2)", f"(x1, {deep})"]))
    command = draw(st.sampled_from(["compose", "invert", "conjugate", "linearize"]))
    if command == "compose":
        return [command, first, second]
    if command == "invert":
        return [command, first]
    if command == "conjugate":
        return [command, second, f"--theta={first}"]
    return [command, f"--target={first}", f"--max-degree={draw(st.integers(0, 6))}"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_requests())
def test_generated_requests_end_in_verdict_or_one_line_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    else:
        assert captured.err == ""


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "planeaut.cli", "verify-formula", "--p", "2",
         "--prefix", "1,1", "--alpha", "1/2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_VERIFY


def fresh_process(*argv):
    proc = subprocess.run([sys.executable, "-m", "planeaut.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    """main parses every call with one argparse tree, built on its first
    call; no call may see what an earlier one parsed."""

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
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    cli.main({list(self.VERIFY)!r})\n"
            "first = len(built)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    cli.main({list(self.NONCONJ)!r})\n"
            "print(first, len(built))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        at_import, line = proc.stdout.splitlines()
        first, second = map(int, line.split())
        assert at_import == "0"
        assert first > 0 and second == first

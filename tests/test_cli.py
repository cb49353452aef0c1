"""CLI commands: golden transcripts, exit codes, manifest input."""

import io
import json
import subprocess
import sys

import pytest

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
    ])
    def test_bad_manifest_json(self, capsys, monkeypatch, command, text, field):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, command)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        if field is not None:
            assert repr(field) in err


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "planeaut.cli", "verify-formula", "--p", "2",
         "--prefix", "1,1", "--alpha", "1/2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_VERIFY

"""Command-line front end.

Every command is deterministic: identical input text yields identical
report text.  Exit codes: 0 for success / true verdicts, 1 for false or
obstruction verdicts (still a valid run), 2 for input errors.

Sequence-taking commands read one manifest: the one spelled by --p, --prefix
and --tail (each given once per sequence or not at all, so twice for the
two-sequence commands; --prefix and --tail need --p), or, when --p is
omitted, the JSON object on stdin.  Any other flag that is given overrides
the manifest field of its name:

    {"prime": 2,
     "a": {"prefix": ["1", "1"], "tail": "zero"},
     "b": {"prefix": [], "tail": ["1", "0"]},
     "alpha": "1/2", "max_degree": 2, "levels": 3, "k0": 0,
     "theta": "(x1, 2*x2)"}

The CLI checks each field it reads; a missing or ill-typed one is an input
error naming it.  Both sequences live over the top-level "prime": "a" and
"b" are read for "prefix" and "tail" only.

The ten commands are declared once, in COMMANDS.  A well-formed request
(exact flag names, every value in place) is read straight from that table,
with no parser; any other argv, -h and every error among them, goes to
argparse's parser, built from the same table on first use, so every usage,
help and error text is argparse's.  argparse is imported only then.
"""

from __future__ import annotations

import sys
from functools import cache
from types import SimpleNamespace

from .cyclotomic import RootOfUnity
from .endo import endo_order
from .prufer import CoeffSequence, verify_formula
from .linearize import minimal_linearizer_degree, solve_linearization
from .conjugacy import (differ_infinitely, necessary_condition, omega0_family,
                        verify_subgroup_conjugator)
from .parsing import parse_endo, parse_scalar, parse_triangular
from . import conjugate as conjugate_endo, compose


_KINDS = {int: "an integer", str: "a string", dict: "an object",
          list: "a list of strings"}
_REQUIRED = object()


def _field(record: dict, key: str, kind: type, default=_REQUIRED):
    """record[key] (or the default, if given, when it is absent) checked to be
    a JSON value of the kind; a bad field raises ValueError naming it."""
    if key not in record:
        if default is _REQUIRED:
            raise ValueError(f"manifest field {key!r} is missing")
        return default
    value = record[key]
    valid = isinstance(value, kind) and not isinstance(value, bool)
    if valid and kind is list:
        valid = all(isinstance(item, str) for item in value)
    if not valid and not (key == "tail" and value == "zero"):
        either = '"zero" or ' if key == "tail" else ""
        raise ValueError(f"manifest field {key!r} must be {either}{_KINDS[kind]}")
    return value


def _alpha(prime: int, text: str) -> RootOfUnity:
    return RootOfUnity.from_exponent(prime, parse_scalar(text))


def _split(text: str) -> list[str]:
    text = text.strip()
    return text.split(",") if text else []


def _read(args, *keys: str) -> tuple:
    """(manifest, one CoeffSequence per key) of a sequence command, read as
    the module docstring describes."""
    if args.p is None:
        if args.prefix is not None or args.tail is not None:
            raise ValueError("--prefix and --tail need --p")
        import json   # off the import and the flag-form requests
        try:
            manifest = json.load(sys.stdin)
        except RecursionError:
            raise ValueError("manifest nested too deeply to read") from None
        except json.JSONDecodeError:
            raise
        except ValueError:  # an integer over Python's int-from-str digit limit
            raise ValueError("manifest integer too long to read (over "
                             f"{sys.get_int_max_str_digits()} digits)") from None
        if not isinstance(manifest, dict):
            raise ValueError("manifest must be a JSON object")
    else:
        prefixes = args.prefix or [None] * len(keys)
        tails = args.tail or [None] * len(keys)
        if len(prefixes) != len(keys) or len(tails) != len(keys):
            times, what = (("once", "sequence") if len(keys) == 1
                           else ("twice", "two sequences"))
            raise ValueError(f"give --prefix and --tail {times} (or not at all) "
                             f"to describe the {what}")
        manifest = {"prime": args.p}
        for key, prefix, tail in zip(keys, prefixes, tails):
            tail = (tail or "zero").strip()
            manifest[key] = {"prefix": _split(prefix or ""),
                             "tail": "zero" if tail == "zero" else _split(tail)}
    manifest.update((name, value) for name, value in vars(args).items()
                    if name in ("alpha", "max_degree", "k0", "theta", "levels")
                    and value is not None)
    sequences = []
    for key in keys:
        record = _field(manifest, key, dict)
        prime = _field(manifest, "prime", int)
        prefix = [parse_scalar(s) for s in _field(record, "prefix", list, [])]
        tail = _field(record, "tail", list, "zero")
        tail = None if tail == "zero" else [parse_scalar(s) for s in tail]
        sequences.append(CoeffSequence(prime, prefix, tail))
    return (manifest, *sequences)


# -- command bodies ---------------------------------------------------------
# Each returns (exit code, report); main prints the report in one print.

def _cmd_compose(args) -> tuple[int, str]:
    first = parse_endo(args.first)
    second = parse_endo(args.second)
    return 0, str(compose(first, second))


def _cmd_invert(args) -> tuple[int, str]:
    theta = parse_triangular(args.endo)
    return 0, str(theta.inverse())


def _cmd_order(args) -> tuple[int, str]:
    psi = parse_endo(args.endo)
    k = endo_order(psi, args.max_order)
    if k is None:
        return 1, f"no order found up to {args.max_order}"
    return 0, f"order = {k}"


def _cmd_conjugate(args) -> tuple[int, str]:
    psi = parse_endo(args.endo)
    theta = parse_triangular(args.theta)
    return 0, str(conjugate_endo(psi, theta))


def _cmd_verify_formula(args) -> tuple[int, str]:
    manifest, seq = _read(args, "a")
    alpha = _alpha(seq.prime, _field(manifest, "alpha", str))
    if verify_formula(seq, alpha):
        return 0, "OK: formula matches composition"
    return 1, "MISMATCH: closed form differs from composition"


def _cmd_linearize(args) -> tuple[int, str]:
    target = parse_endo(args.target)
    result = solve_linearization(target, args.max_degree)
    if result.found:
        return 0, f"LINEARIZED\ntheta = {result.theta}\nh = {result.h}"
    return 1, f"OBSTRUCTION\ndegree = {result.obstruction_degree}"


def _cmd_min_degree(args) -> tuple[int, str]:
    manifest, seq = _read(args, "a")
    alpha_text = _field(manifest, "alpha", str)
    bound = _field(manifest, "max_degree", int)
    alpha = _alpha(seq.prime, alpha_text)
    degree = minimal_linearizer_degree(seq, alpha, bound)
    if degree is None:
        return 1, f"no triangular-affine linearizer up to degree {bound}"
    return 0, f"minimal degree = {degree}"


def _cmd_nonconj_check(args) -> tuple[int, str]:
    manifest, a, b = _read(args, "a", "b")
    report = necessary_condition(a, b, _field(manifest, "k0", int, None))
    if report.satisfiable:
        return 0, (f"CONDITION SATISFIABLE\nbeta = {report.beta}\n"
                   f"gamma = {report.gamma}\nholds from k = {report.effective_from}")
    offsets = ",".join(str(o) for o in report.offsets)
    return 1, (f"NON-CONJUGATE CERTIFICATE\nfailing indices: preamble={report.preamble}, "
               f"period={report.period}, offsets=[{offsets}]\nreason: {report.reason}")


def _cmd_verify_conjugator(args) -> tuple[int, str]:
    manifest, a, b = _read(args, "a", "b")
    theta_text = _field(manifest, "theta", str)
    levels = _field(manifest, "levels", int, 3)
    theta = parse_triangular(theta_text)
    if verify_subgroup_conjugator(a, b, theta, levels):
        return 0, f"OK: conjugator intertwines levels 1..{levels}"
    return 1, f"FAIL: conjugator does not intertwine levels 1..{levels}"


def _cmd_omega_family(args) -> tuple[int, str]:
    family = omega0_family(args.count)
    lines = []
    for i, seq in enumerate(family):
        bits = ",".join(str(b) for b in seq.tail)
        lines.append(f"sequence {i}: tail=[{bits}]")
    pairs = [(i, j) for i in range(len(family)) for j in range(i + 1, len(family))]
    good = sum(1 for i, j in pairs if differ_infinitely(family[i], family[j]))
    lines.append(f"pairwise infinite disagreement: {good}/{len(pairs)}")
    return (0 if good == len(pairs) else 1), "\n".join(lines)


# -- wiring -----------------------------------------------------------------
# Every command once, as (name, help, handler, arguments), each argument an
# (add_argument name, add_argument keywords) pair.  build_parser builds
# argparse's tree from it, and _read_argv reads the well-formed requests
# with it; the reader knows the keywords action="append", type, default and
# required, so no argument may take any other (help aside).

_SEQUENCE_FLAGS = (
    ("--prefix", {"action": "append",
                  "help": "comma-separated scalars; once per sequence (a then b)"}),
    ("--tail", {"action": "append",
                "help": "'zero' or a comma-separated repeating block; once per sequence"}),
    ("--p", {"type": int, "default": None,
             "help": "the prime (omit to read a JSON manifest from stdin)"}),
)

COMMANDS = (
    ("compose", "product of two automorphisms (first acts first)", _cmd_compose,
     (("first", {}), ("second", {}))),
    ("invert", "inverse of a triangular-affine map", _cmd_invert, (("endo", {}),)),
    ("order", "multiplicative order: closed form for triangular-affine maps, "
              "else the least divisor of W whose power is the identity", _cmd_order,
     (("endo", {}), ("--max-order", {"type": int, "default": 256}))),
    ("conjugate", "theta^-1 * psi * theta", _cmd_conjugate,
     (("endo", {}), ("--theta", {"required": True}))),
    ("verify-formula", "closed-form conjugate vs brute-force composition",
     _cmd_verify_formula,
     (*_SEQUENCE_FLAGS, ("--alpha", {"help": "root exponent j/p^n, e.g. 3/8 for z(8)^3"}))),
    ("linearize", "solve for a triangular-affine diagonalizer", _cmd_linearize,
     (("--target", {"required": True}),
      ("--max-degree", {"type": int, "required": True}))),
    ("min-degree", "smallest degree bound that linearizes", _cmd_min_degree,
     (*_SEQUENCE_FLAGS, ("--alpha", {}), ("--max-degree", {"type": int, "default": None}))),
    ("nonconj-check", "necessary condition for subgroup conjugacy", _cmd_nonconj_check,
     (*_SEQUENCE_FLAGS, ("--k0", {"type": int, "default": None}))),
    ("verify-conjugator", "check a claimed conjugator on levels 1..N, "
                          "read off its coefficients with no composition",
     _cmd_verify_conjugator,
     (*_SEQUENCE_FLAGS, ("--theta", {}), ("--levels", {"type": int, "default": None}))),
    ("omega-family", "pairwise infinitely-differing bit sequences", _cmd_omega_family,
     (("--count", {"type": int, "required": True}),)),
)


# built on first use, not at import; parse_args keeps no state between calls,
# so one parser serves them all
@cache
def build_parser():
    """argparse's parser of every command, each a subparser."""
    import argparse   # off the import and the well-formed requests

    class Parser(argparse.ArgumentParser):
        def _get_values(self, action, arg_strings):
            # --name=-- is the value '--' on every Python, as on 3.13; up to
            # 3.12.1 argparse drops the '--' and hands the flag's action []
            if action.option_strings and arg_strings == ["--"]:
                return self._get_value(action, "--")
            return super()._get_values(action, arg_strings)

    parser = Parser(
        prog="planeaut",
        description="Exact computations with plane polynomial automorphisms "
                    "over cyclotomic fields.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help, run, arguments in COMMANDS:
        sub = commands.add_parser(name, help=help)
        for argument, keywords in arguments:
            sub.add_argument(argument, **keywords)
        sub.set_defaults(run=run)
    return parser


def _reader(name, run, arguments) -> tuple:
    """(flags, positionals, required, start) of one command: each flag by its
    exact name as (dest, append, type), the positionals' names in order, the
    required flags' dests, and the namespace argparse starts from (every
    flag at its default, with command and run)."""
    flags, positionals, required = {}, [], set()
    start = {"command": name, "run": run}
    for argument, keywords in arguments:
        if not argument.startswith("-"):
            positionals.append(argument)
            continue
        dest = argument.lstrip("-").replace("-", "_")
        flags[argument] = (dest, keywords.get("action") == "append", keywords.get("type"))
        start[dest] = keywords.get("default")
        if keywords.get("required"):
            required.add(dest)
    return flags, positionals, required, start


_READERS = {name: _reader(name, run, arguments) for name, _, run, arguments in COMMANDS}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """argv's namespace, as argparse would build it, where argv is a known
    command followed by exact flag names (--name=value, or --name value
    with a value not starting with '-'), and by exactly the command's
    positionals, none starting with '-'; with every required flag given and
    every typed value converting.  An append flag collects its values in
    order, any other flag keeps its last.  None for any other argv."""
    if not argv or (reader := _READERS.get(argv[0])) is None:
        return None
    flags, positionals, required, start = reader
    values, given, seen = dict(start), [], set()
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            given.append(arg)
            continue
        name, equals, value = arg.partition("=")
        if (flag := flags.get(name)) is None:
            return None
        if not equals:
            value = next(rest, "-")   # past the end: missing, as for argparse
            if value.startswith("-"):
                return None
        dest, append, convert = flag
        if convert:
            try:
                value = convert(value)
            except ValueError:
                return None
        values[dest] = [*(values[dest] or ()), value] if append else value
        seen.add(dest)
    if len(given) != len(positionals) or not required <= seen:
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def _parse_args(argv):
    """build_parser().parse_args(argv), read by _read_argv where it can.
    Everything else (no command or an unknown one, -h, an abbreviation, a
    '--', a value starting with '-', a missing or extra argument, a value
    that does not convert) goes to argparse, so every usage, help and error
    text is argparse's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if (args := _read_argv(argv)) is None:
        args = build_parser().parse_args(argv)
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        code, report = args.run(args)
    # ParseError, DomainMismatchError and json.JSONDecodeError are ValueErrors
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())

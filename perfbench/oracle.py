"""Independent answer checks for the benchmark, run outside the timed region.

Verdicts that are fixed by construction are compared as exact text.  Maps
printed by `compose`, `conjugate`, `invert` and `linearize`, and the witness
printed by `nonconj-check`, are checked by evaluating both sides of the
defining identity at a seeded rational point.  The evaluation happens in
the prime field GF(Q) with zeta_m sent to a fixed element of order m, which
is a ring homomorphism from Z[1/d][zeta_m] for every m dividing ORDER and
every d prime to Q: equal outputs always agree, and a wrong polynomial of
degree D agrees at a random point with probability at most D/Q.  The
evaluator has its own tokenizer and never calls into planeaut, so it shares
no code with the program it checks.
"""

from __future__ import annotations

import random
import re

# Q is prime and Q - 1 is divisible by ORDER, so GF(Q)* has elements of
# every order m dividing ORDER.
ORDER = 2 ** 8 * 3 ** 5 * 5 ** 3 * 7 ** 3
Q = 2305843011670464001


def _element_of_order(order: int) -> int:
    for x in range(2, 1000):
        h = pow(x, (Q - 1) // order, Q)
        if all(pow(h, order // r, Q) != 1 for r in (2, 3, 5, 7)):
            return h
    raise RuntimeError("no element of the required order")


_ROOT = _element_of_order(ORDER)


class OracleError(ValueError):
    """Text the evaluator cannot read, or a value outside GF(Q)."""


def zeta(m: int) -> int:
    """The image of zeta_m = e^(2 pi i/m) in GF(Q)."""
    if m < 1 or ORDER % m:
        raise OracleError(f"z({m}) is outside the oracle field")
    return pow(_ROOT, ORDER // m, Q)


def inv(x: int) -> int:
    x %= Q
    if not x:
        raise OracleError("division by a value that vanishes mod Q")
    return pow(x, Q - 2, Q)


_TOKEN = re.compile(r"\s*(?:(\d+)|(x1|x2|z)|([-+*/^(),]))")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise OracleError(f"cannot read {text[pos:pos + 20]!r}")
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    tokens.append("")
    return tokens


class _Evaluator:
    """Recursive descent over the planeaut grammar, valued in GF(Q)."""

    def __init__(self, text: str, x1: int, x2: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.x1, self.x2 = x1, x2

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self, expected: str | None = None) -> str:
        tok = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise OracleError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def expr(self) -> int:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = (value + rhs if op == "+" else value - rhs) % Q
        return value

    def term(self) -> int:
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            value = value * (rhs if op == "*" else inv(rhs)) % Q
        return value

    def unary(self) -> int:
        if self.peek() == "-":
            self.take()
            return -self.unary() % Q
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return pow(base, int(self.take()), Q)
        return base

    def atom(self) -> int:
        tok = self.take()
        if tok.isdigit():
            return int(tok) % Q
        if tok == "x1":
            return self.x1
        if tok == "x2":
            return self.x2
        if tok == "z":
            self.take("(")
            m = int(self.take())
            self.take(")")
            return zeta(m)
        if tok == "(":
            value = self.expr()
            self.take(")")
            return value
        raise OracleError(f"unexpected {tok!r}")

    def finish(self):
        if self.peek():
            raise OracleError(f"trailing {self.peek()!r}")


def scalar(text: str) -> int:
    ev = _Evaluator(text, 0, 0)
    value = ev.expr()
    ev.finish()
    return value


def apply_map(text: str, point: tuple[int, int]) -> tuple[int, int]:
    """Evaluate the map `(f1, f2)` at a point: (f1(point), f2(point))."""
    ev = _Evaluator(text, *point)
    ev.take("(")
    f1 = ev.expr()
    ev.take(",")
    f2 = ev.expr()
    ev.take(")")
    ev.finish()
    return f1, f2


def random_point(rng: random.Random) -> tuple[int, int]:
    """A rational point p1/q1, p2/q2 with small terms, reduced mod Q."""
    return tuple(rng.randint(-99, 99) * inv(rng.randint(1, 97)) % Q
                 for _ in range(2))


# -- checks ------------------------------------------------------------------
#
# Each check takes the request's oracle spec and the captured stdout, and
# returns None when the answer is right or a one-line reason when it is not.

def _field(out: str, label: str) -> str | None:
    for line in out.splitlines():
        if line.startswith(label):
            return line[len(label):]
    return None


def _check_text(spec, out: str, rng) -> str | None:
    expected = spec[1]
    return None if out == expected else f"expected {expected!r}, got {out!r}"


def _check_compose(spec, out: str, rng) -> str | None:
    # compose(phi, psi).f_i = phi.f_i(psi.f1, psi.f2)
    _, phi, psi = spec
    point = random_point(rng)
    if apply_map(out, point) != apply_map(phi, apply_map(psi, point)):
        return "composite disagrees with phi(psi(P))"
    return None


def _check_conjugate(spec, out: str, rng) -> str | None:
    # C = theta^-1 * psi * theta means theta(C(P)) = psi(theta(P))
    _, psi, theta = spec
    point = random_point(rng)
    if apply_map(theta, apply_map(out, point)) != apply_map(psi, apply_map(theta, point)):
        return "conjugate fails theta(C(P)) = psi(theta(P))"
    return None


def _check_invert(spec, out: str, rng) -> str | None:
    _, theta = spec
    point = random_point(rng)
    if apply_map(theta, apply_map(out, point)) != point:
        return "theta(T(P)) != P"
    if apply_map(out, apply_map(theta, point)) != point:
        return "T(theta(P)) != P"
    return None


def _check_linearized(spec, out: str, rng) -> str | None:
    # theta^-1 * target * theta = h, i.e. theta(h(P)) = target(theta(P)),
    # with h = (alpha*x1, alpha*x2) and deg theta <= bound
    _, target, alpha, bound = spec
    lines = out.splitlines()
    if not lines or lines[0] != "LINEARIZED":
        return f"expected LINEARIZED, got {out!r}"
    theta, h = _field(out, "theta = "), _field(out, "h = ")
    if theta is None or h is None:
        return "missing theta or h"
    degrees = [int(e) for e in re.findall(r"x2\^(\d+)", theta)]
    if max(degrees, default=1) > bound:
        return f"theta has degree {max(degrees)} above the bound {bound}"
    point = random_point(rng)
    a = scalar(alpha)
    if apply_map(h, point) != (a * point[0] % Q, a * point[1] % Q):
        return "h is not (alpha*x1, alpha*x2)"
    if apply_map(theta, apply_map(h, point)) != apply_map(target, apply_map(theta, point)):
        return "theta(h(P)) != target(theta(P))"
    return None


def _check_satisfiable(spec, out: str, rng) -> str | None:
    # a_k beta^(p^k+1) = gamma b_k from the reported index on, over a
    # window past both prefixes, the root levels and two joint periods
    _, p, a, b, k0 = spec
    lines = out.splitlines()
    if not lines or lines[0] != "CONDITION SATISFIABLE":
        return f"expected CONDITION SATISFIABLE, got {out!r}"
    beta_text, gamma_text = _field(out, "beta = "), _field(out, "gamma = ")
    start_text = _field(out, "holds from k = ")
    if beta_text is None or gamma_text is None or start_text is None:
        return "missing beta, gamma or start index"
    start = int(start_text)
    if start > k0:
        return f"condition only holds from k = {start}, expected <= {k0}"
    beta, gamma = scalar(beta_text), scalar(gamma_text)
    if not beta or not gamma:
        return "beta or gamma vanishes"
    a_vals = _sequence_values(a)
    b_vals = _sequence_values(b)
    period = len(a[1]) * len(b[1]) or 1
    stop = max(len(a[0]), len(b[0]), 8) + 2 * period
    for k in range(start, stop):
        lhs = _coeff(a_vals, k) * pow(beta, p ** k + 1, Q) % Q
        if lhs != gamma * _coeff(b_vals, k) % Q:
            return f"a_k beta^(p^k+1) != gamma b_k at k = {k}"
    return None


def _sequence_values(seq):
    prefix, tail = seq
    return [scalar(t) for t in prefix], [scalar(t) for t in tail]


def _coeff(values, k: int) -> int:
    prefix, tail = values
    if k < len(prefix):
        return prefix[k]
    if not tail:
        return 0
    return tail[(k - len(prefix)) % len(tail)]


_CHECKS = {
    "text": _check_text,
    "compose": _check_compose,
    "conjugate": _check_conjugate,
    "invert": _check_invert,
    "linearized": _check_linearized,
    "satisfiable": _check_satisfiable,
}


def check(request, code, out: str, rng: random.Random) -> str | None:
    """None if the request's answer is right, else the reason it is wrong."""
    if code != request.code:
        return f"exit code {code!r}, expected {request.code}"
    try:
        return _CHECKS[request.spec[0]](request.spec, out, rng)
    except OracleError as exc:
        return f"oracle could not read the answer: {exc}"

"""Seeded request generators for the four benchmark workloads.

Each generator returns a list of Requests: the argv handed to
`planeaut.cli.main`, the exit code that a correct run returns, and the
oracle spec that `oracle.check` reads.  Every expected verdict is derived
from the construction of the input (the closed form of the paper, or the
scalar relation the input was built to satisfy), never from the program.

The shape of each request pool -- which (p, n) cells, which commands, which
side of an answer -- is fixed; the seed draws only the coefficients, roots
and bounds inside that shape, so the work per pass varies little between
seeds.  Flag values are always passed as `--flag=value`, because argparse
reads a separate value that starts with `-` as an unknown option.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

RATIONALS = [Fraction(n, d) for n, d in
             ((1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-3, 2), (3, 1),
              (2, 3), (-5, 4), (4, 3))]


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    code: int
    spec: tuple


def _flag(name: str, value) -> str:
    return f"--{name}={value}"


# -- scalar literals ----------------------------------------------------------
#
# A scalar of the p-tower is held as {exponent: coefficient} over zeta_m for
# one modulus m; the literal need not be canonical, the parser reduces it.

def _literal(terms: dict[int, Fraction], m: int) -> str:
    parts = []
    for e, c in sorted(terms.items()):
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            parts.append(f"{c}*z({m})" if e == 1 else f"{c}*z({m})^{e}")
    return " + ".join(parts) or "0"


def _dense(rng: random.Random, p: int, level: int, m: int,
           terms: int | None = None) -> dict[int, Fraction]:
    """A nonzero element of Q(zeta_{p^level}) on the power basis, over zeta_m.

    `terms` basis positions are filled (all phi of them when None); the
    first is always prime to p, so the value has exactly this level.
    """
    phi = p ** (level - 1) * (p - 1) if level else 1
    if phi == 1:
        return {0: rng.choice(RATIONALS)}
    units = [i for i in range(1, phi) if i % p]
    picked = {rng.choice(units)}
    want = phi if terms is None else min(terms, phi)
    while len(picked) < want:
        picked.add(rng.randrange(phi))
    stride = m // p ** level
    return {i * stride: rng.choice(RATIONALS) for i in picked}


def _times(terms: dict[int, Fraction], scale: Fraction, shift: int,
           m: int) -> dict[int, Fraction]:
    """terms * scale * zeta_m^shift."""
    out: dict[int, Fraction] = {}
    for e, c in terms.items():
        k = (e + shift) % m
        out[k] = out.get(k, Fraction(0)) + c * scale
    return out


def _unit(rng: random.Random, p: int, level: int) -> int:
    """An exponent j prime to p, so zeta_{p^level}^j is primitive."""
    return rng.choice([j for j in range(1, p ** level) if j % p])


def _root_literal(p: int, level: int, j: int) -> str:
    return "1" if level == 0 else f"z({p ** level})^{j}"


# -- formula -------------------------------------------------------------------

FORMULA_LEVELS = {2: 5, 3: 3, 5: 3, 7: 2}
FORMULA_OK = "OK: formula matches composition\n"


def _formula_coeff(rng, p: int, cyclotomic: bool) -> str:
    if rng.random() < 0.15:
        return "0"
    if not cyclotomic:
        return str(rng.choice(RATIONALS))
    level = rng.randint(1, 2)
    return _literal(_dense(rng, p, level, p ** level, terms=3), p ** level)


def formula(rng: random.Random) -> list[Request]:
    """verify-formula over every (p, root level) cell, rational and
    cyclotomic prefixes, with a periodic tail on half the requests."""
    out = []
    for r in range(6):
        for p, top in FORMULA_LEVELS.items():
            for level in range(1, top + 1):
                for cyclotomic in (False, True):
                    for tail in (False, True):
                        slot = r + level + cyclotomic
                        prefix = [_formula_coeff(rng, p, cyclotomic)
                                  for _ in range(1 + slot % (level + 1))]
                        block = ([_formula_coeff(rng, p, cyclotomic)
                                  for _ in range(1 + slot % 3)]
                                 if tail else ["zero"])
                        argv = ("verify-formula", _flag("p", p),
                                _flag("prefix", ",".join(prefix)),
                                _flag("tail", ",".join(block)),
                                _flag("alpha", f"{_unit(rng, p, level)}/{p ** level}"))
                        out.append(Request("verify-formula", argv, 0,
                                           ("text", FORMULA_OK)))
    return out


# -- linearize ------------------------------------------------------------------

# (5, 3) is left out: one dense inversion there takes seconds at seed.
LINEARIZE_CELLS = [(2, 4), (2, 5), (2, 6), (3, 3), (5, 2), (7, 2)]
LINEARIZE_TERMS = 8


def _min_degree(rng, p: int, n: int, top: int, above: bool) -> Request:
    """min-degree on a prefix whose last nonzero a_k below n is a_top.

    The conjugate of diag(alpha) with alpha of level n has shift terms
    x2^(p^k+1) for exactly the k < n with a_k != 0, so the smallest bound
    that linearizes is p^top + 1.
    """
    m = p ** n
    prefix = [_literal(_dense(rng, p, n, m, LINEARIZE_TERMS), m)
              for _ in range(top + 1)] + ["0"] * (n - 1 - top)
    tail = (_literal(_dense(rng, p, n, m, LINEARIZE_TERMS), m)
            if above else "zero")
    answer = p ** top + 1
    if above:
        bound = answer + 1
        code, text = 0, f"minimal degree = {answer}\n"
    else:
        bound = answer - 1
        code, text = 1, f"no triangular-affine linearizer up to degree {bound}\n"
    argv = ("min-degree", _flag("p", p), _flag("prefix", ",".join(prefix)),
            _flag("tail", tail), _flag("alpha", f"{_unit(rng, p, n)}/{m}"),
            _flag("max-degree", bound))
    return Request("min-degree", argv, code, ("text", text))


def _linearize_target(rng, p: int, n: int, variant: str) -> Request:
    """linearize --target on (alpha*x1 + S(x2), alpha*x2), alpha of level n.

    g_d (alpha^d - alpha) = S_d has no solution exactly when p^n | d - 1
    and S_d != 0; otherwise g_d != 0 iff S_d != 0.  So the verdict is
    OBSTRUCTION at the smallest such d ("unsolvable"), else OBSTRUCTION at
    the largest degree above the bound ("forced"), else LINEARIZED.
    """
    m = p ** n
    alpha = _root_literal(p, n, _unit(rng, p, n))
    degrees = {p ** k + 1 for k in range(n)}
    while len(degrees) < n + 2:
        d = rng.randint(2, m)
        if (d - 1) % m:
            degrees.add(d)
    if variant == "unsolvable":
        degrees.add(m + 1)
    shift = " + ".join(f"({_literal(_dense(rng, p, n, m, LINEARIZE_TERMS), m)})*x2^{d}"
                       for d in sorted(degrees))
    target = f"({alpha}*x1 + {shift}, {alpha}*x2)"
    top = max(degrees)
    if variant == "linearized":
        bound = top + 1
        code, spec = 0, ("linearized", target, alpha, bound)
    elif variant == "forced":
        bound = top - 1
        code, spec = 1, ("text", f"OBSTRUCTION\ndegree = {top}\n")
    else:
        bound = rng.randint(2, top)
        code, spec = 1, ("text", f"OBSTRUCTION\ndegree = {m + 1}\n")
    argv = ("linearize", _flag("target", target), _flag("max-degree", bound))
    return Request("linearize", argv, code, spec)


def linearize(rng: random.Random) -> list[Request]:
    """Two thirds min-degree (bounds on both sides of the answer), one third
    linearize --target, on every cell, twice."""
    out = []
    for _ in range(2):
        for p, n in LINEARIZE_CELLS:
            for top in (n - 1, n - 2):
                for above in (True, False):
                    out.append(_min_degree(rng, p, n, top, above))
            out.append(_linearize_target(rng, p, n, "linearized"))
            out.append(_linearize_target(rng, p, n, "forced" if n % 2 else "unsolvable"))
    return out


# -- nonconj ---------------------------------------------------------------------

NONCONJ_PRIMES = (2, 3, 5, 7)
# Entries of sequences the solver divides by stay at low level for p = 7,
# where one dense inversion at level 2 costs a quarter second at seed.
COEFF_LEVEL = {2: 4, 3: 2, 5: 2, 7: 1}      # top level of the sequence entries
COEFF_TERMS = {2: 8, 3: 6, 5: 8, 7: 6}      # basis terms filled per entry
BETA_LEVEL = {2: 3, 3: 3, 5: 2, 7: 1}       # beta = +-root of at most this level
# Support-mismatch certificates never divide, so their entries are long,
# fully dense literals at the top level the prime allows.
LITERAL_LEVEL = {2: 5, 3: 3, 5: 2, 7: 2}
CONJUGATOR_LEVELS = {2: 3, 3: 2, 5: 2, 7: 1}


def _entry(rng, p: int, m: int) -> dict[int, Fraction]:
    return _dense(rng, p, COEFF_LEVEL[p], m, COEFF_TERMS[p])


def _long_entry(rng, p: int, m: int) -> dict[int, Fraction]:
    return _dense(rng, p, LITERAL_LEVEL[p], m)


def _related_pair(rng, p: int, slot: int):
    """Sequences a, b with a_k beta^(p^k+1) = gamma b_k for every k.

    beta = s*zeta^r with s = +-1 and r of level L, gamma = g*zeta^t.  Past
    k = max(L, 1) the factor beta^(p^k+1) is the constant s*zeta^r, so b
    is eventually periodic with a's period.  Every entry of a is nonzero,
    so the first common support index past both prefixes is b's prefix
    length, and the root search there stays small.  The slot fixes the
    levels and lengths; the seed draws the values.
    """
    level_beta = slot % (BETA_LEVEL[p] + 1)
    level_gamma = (slot // 2) % (COEFF_LEVEL[p] + 1)
    top = max(COEFF_LEVEL[p], level_beta)
    m = p ** top
    sign = rng.choice((1, -1))
    r = _unit(rng, p, level_beta) if level_beta else 0
    g = rng.choice(RATIONALS)
    t = _unit(rng, p, level_gamma) if level_gamma else 0
    r_m, t_m = r * (m // p ** level_beta), t * (m // p ** level_gamma)

    a_prefix = [_entry(rng, p, m) for _ in range(1 + slot % 2)]
    a_tail = [_entry(rng, p, m) for _ in range(1 + slot % 3)]

    def a_at(k):
        if k < len(a_prefix):
            return a_prefix[k]
        return a_tail[(k - len(a_prefix)) % len(a_tail)]

    def b_at(k):
        e = p ** k + 1
        return _times(a_at(k), Fraction(sign ** e) / g, r_m * e - t_m, m)

    start = max(len(a_prefix), level_beta, 1)
    b_prefix = [b_at(k) for k in range(start)]
    b_tail = [b_at(start + i) for i in range(len(a_tail))]
    lit = lambda seq: tuple(_literal(x, m) for x in seq)  # noqa: E731
    beta = _root_literal(p, level_beta, r)
    beta = beta if sign == 1 else f"-{beta}"
    gamma = f"{g}*{_root_literal(p, level_gamma, t)}"
    return ((lit(a_prefix), lit(a_tail)), (lit(b_prefix), lit(b_tail)),
            beta, gamma, start)


def _two_sequence_argv(command: str, p: int, a, b) -> tuple[str, ...]:
    return (command, _flag("p", p),
            _flag("prefix", ",".join(a[0])), _flag("tail", ",".join(a[1])),
            _flag("prefix", ",".join(b[0])), _flag("tail", ",".join(b[1])))


def _satisfiable(rng, p: int, slot: int) -> Request:
    a, b, _, _, start = _related_pair(rng, p, slot)
    return Request("nonconj-check", _two_sequence_argv("nonconj-check", p, a, b),
                   0, ("satisfiable", p, a, b, start))


def _conjugator(rng, p: int, slot: int) -> Request:
    """verify-conjugator with theta = (gamma*x1, beta*x2), which intertwines
    the two subgroups at every level because the relation holds at every k."""
    a, b, beta, gamma, _ = _related_pair(rng, p, slot)
    levels = 1 + slot % CONJUGATOR_LEVELS[p]
    argv = _two_sequence_argv("verify-conjugator", p, a, b) + (
        _flag("theta", f"({gamma}*x1, {beta}*x2)"), _flag("levels", levels))
    return Request("verify-conjugator", argv, 0,
                   ("text", f"OK: conjugator intertwines levels 1..{levels}\n"))


def _certificate_text(join: int, period: int, offsets, reason: str) -> str:
    return ("NON-CONJUGATE CERTIFICATE\n"
            f"failing indices: preamble={join}, period={period}, "
            f"offsets=[{','.join(map(str, offsets))}]\n"
            f"reason: {reason}\n")


# (prefix length, tail support pattern) of a and b; every pair of patterns
# differs somewhere in the joint period past both prefixes.
SUPPORT_SHAPES = [
    ((0, (1,)), (1, (1, 0))),
    ((2, (1, 0, 1)), (1, (1,))),
    ((1, (0, 1)), (0, (1, 1, 0))),
    ((1, (1, 1)), (2, (1, 0, 0))),
]


def _support_mismatch(rng, p: int, slot: int) -> Request:
    """Tails whose zero patterns differ somewhere in the joint period."""
    m = p ** LITERAL_LEVEL[p]
    (pa, ta), (pb, tb) = SUPPORT_SHAPES[slot % len(SUPPORT_SHAPES)]
    join, period = max(pa, pb), lcm(len(ta), len(tb))
    offsets = [o for o in range(period)
               if ta[(join + o - pa) % len(ta)] != tb[(join + o - pb) % len(tb)]]

    def sequence(prefix_len, bits):
        prefix = tuple(_literal(_long_entry(rng, p, m), m) for _ in range(prefix_len))
        tail = tuple(_literal(_long_entry(rng, p, m), m) if bit else "0"
                     for bit in bits)
        return prefix, tail

    a, b = sequence(pa, ta), sequence(pb, tb)
    text = _certificate_text(join, period, offsets,
                             "supports disagree on a periodic index set")
    return Request("nonconj-check", _two_sequence_argv("nonconj-check", p, a, b),
                   1, ("text", text))


def _ratio_mismatch(rng, p: int, slot: int) -> Request:
    """Equal supports, but b_k/a_k takes two values on the periodic part."""
    m = p ** COEFF_LEVEL[p]
    period = 2 + slot % 2
    entries = [_entry(rng, p, m) for _ in range(period)]
    if period == 3:
        entries[slot % 3] = {}
    nonzero = [i for i, x in enumerate(entries) if x]
    ratios = rng.sample(RATIONALS, period)
    pa, pb = slot % 3, (slot + 1) % 3
    a_prefix = [_entry(rng, p, m) for _ in range(pa)]
    b_prefix = [_entry(rng, p, m) for _ in range(pb)]
    # a_k = entries[(k - pa) % period]; b_k = a_k * ratios[(k - pa) % period]
    b_tail = [_times(entries[(pb + i - pa) % period],
                     ratios[(pb + i - pa) % period], 0, m) for i in range(period)]
    join = max(pa, pb)
    offsets = [o for o in range(period) if (join + o - pa) % period in nonzero]
    lit = lambda seq: tuple(_literal(x, m) for x in seq)  # noqa: E731
    a, b = (lit(a_prefix), lit(entries)), (lit(b_prefix), lit(b_tail))
    text = _certificate_text(join, period, offsets,
                             "eventual ratios b_k/a_k are not constant")
    return Request("nonconj-check", _two_sequence_argv("nonconj-check", p, a, b),
                   1, ("text", text))


def nonconj(rng: random.Random) -> list[Request]:
    """nonconj-check pairs built satisfiable or as certificates, plus
    verify-conjugator on conjugators known to be correct."""
    out = []
    for r in range(6):
        for p in NONCONJ_PRIMES:
            out.append(_satisfiable(rng, p, 2 * r))
            out.append(_satisfiable(rng, p, 2 * r + 1))
            out.append(_support_mismatch(rng, p, r))
            out.append(_ratio_mismatch(rng, p, r))
            out.append(_conjugator(rng, p, r))
    return out


# The search-cap defect: the same sequence twice, a long zero prefix and a
# constant tail, is satisfiable with beta = gamma = 1, but the root search
# kernel p^prefix exceeds the solver's cap and the command raises.  These
# requests are not part of any timed workload; the benchmark runs them on
# the side and reports how many still fail.
def cap_defect_probes() -> list[Request]:
    out = []
    for p, zeros, tail in ((2, 20, ("1",)), (3, 12, ("1", "2"))):
        seq = (("0",) * zeros, tail)
        out.append(Request("nonconj-check",
                           _two_sequence_argv("nonconj-check", p, seq, seq),
                           0, ("satisfiable", p, seq, seq, zeros)))
    return out


# -- maps ------------------------------------------------------------------------

ORDER_CELLS = [(2, 3), (2, 4), (3, 2), (5, 1), (7, 1)]
MAP_PRIMES = (2, 3, 5, 7)
# Monomials (x1-exponent, x2-exponent) of the random maps' components, and
# x2-exponents of the shift part g of triangular maps.
MAP_SHAPES = [
    ([(1, 0), (1, 1), (0, 3)], [(0, 1), (2, 0)]),
    ([(1, 0), (2, 1), (0, 2)], [(0, 1), (1, 1)]),
    ([(1, 0), (0, 2), (3, 0)], [(0, 1), (0, 2)]),
]
SHIFT_SHAPES = [(0, 2, 3), (1, 3, 4), (0, 1, 5)]
# conjugate expands psi(theta) with psi of degree 3, so its theta stays small
CONJUGATOR_SHIFTS = [(0, 2), (1, 2), (0, 1, 2)]


def _scalar(rng, p: int, cyclotomic: bool) -> str:
    """A rational, or a two-term element of the p-tower at its top level
    for this workload (level 2 for p = 2, 3 and level 1 for p = 5, 7)."""
    if not cyclotomic:
        return str(rng.choice(RATIONALS))
    level = 2 if p < 5 else 1
    return _literal(_dense(rng, p, level, p ** level, terms=2), p ** level)


def _poly(rng, p: int, monomials) -> str:
    parts = []
    for i, (e1, e2) in enumerate(monomials):
        mono = "*".join([f"x1^{e1}"] * bool(e1) + [f"x2^{e2}"] * bool(e2))
        coeff = f"({_scalar(rng, p, i % 2 == 1)})"
        parts.append(f"{coeff}*{mono}" if mono else coeff)
    return " + ".join(parts)


def _shift(rng, p: int, slot: int, shapes=SHIFT_SHAPES) -> str:
    return _poly(rng, p, [(0, e) for e in shapes[slot % len(shapes)]])


def _inverse_monomial(rng, p: int, level: int) -> str:
    """The literal of 1/(q*zeta^j) for a random q*zeta^j of the given level."""
    q = rng.choice(RATIONALS)
    if level == 0:
        return str(1 / q)
    m = p ** level
    return f"({1 / q})*z({m})^{m - _unit(rng, p, level)}"


def _order(rng, p: int, n: int) -> Request:
    """order of theta^-1 * diag(a) * theta, a = zeta_{p^n}^j primitive.

    With theta = (gamma*x1 + g(x2), beta*x2 + beta0) the conjugate is
    (a*x1 + (a*g(x2) - g(a*x2 + c))/gamma, a*x2 + c) where
    c = (a - 1)*beta0/beta; its order is that of a, p^n.  The shape of
    theta is the same in every cell, so the order requests of one cell
    cost about the same and the latency tail has no gap inside a cell.
    """
    a = f"z({p ** n})^{_unit(rng, p, n)}"
    inv_gamma = _inverse_monomial(rng, p, n)
    inv_beta = _inverse_monomial(rng, p, 1)
    beta0 = _scalar(rng, p, True)
    c = f"(({a}) - 1)*({beta0})*({inv_beta})"
    g = _shift(rng, p, 0)
    g_moved = g.replace("x2", f"({a}*x2 + {c})")
    psi = f"({a}*x1 + ({inv_gamma})*(({a})*({g}) - ({g_moved})), {a}*x2 + {c})"
    return Request("order", ("order", psi), 0, ("text", f"order = {p ** n}\n"))


def _triangular(rng, p: int, slot: int, shapes=SHIFT_SHAPES) -> str:
    gamma, beta = _scalar(rng, p, True), _scalar(rng, p, True)
    beta0 = _scalar(rng, p, slot % 2 == 0)
    return f"(({gamma})*x1 + {_shift(rng, p, slot, shapes)}, ({beta})*x2 + {beta0})"


def _random_map(rng, p: int, slot: int) -> str:
    f1, f2 = MAP_SHAPES[slot % len(MAP_SHAPES)]
    return f"({_poly(rng, p, f1)}, {_poly(rng, p, f2)})"


def maps(rng: random.Random) -> list[Request]:
    """order of conjugated diagonal maps, compose of random maps, and
    conjugate / invert with cyclotomic triangular-affine conjugators."""
    out = []
    for r in range(4):
        for p, n in ORDER_CELLS:
            out.append(_order(rng, p, n))
        for i, p in enumerate(MAP_PRIMES):
            slot = r + i
            first, second = _random_map(rng, p, slot), _random_map(rng, p, slot + 1)
            out.append(Request("compose", ("compose", first, second), 0,
                               ("compose", first, second)))
            psi = _random_map(rng, p, slot + 2)
            theta = _triangular(rng, p, slot, CONJUGATOR_SHIFTS)
            out.append(Request("conjugate", ("conjugate", psi, _flag("theta", theta)),
                               0, ("conjugate", psi, theta)))
            theta = _triangular(rng, p, slot + 1)
            out.append(Request("invert", ("invert", theta), 0, ("invert", theta)))
    return out


WORKLOADS = {
    "formula": formula,
    "linearize": linearize,
    "nonconj": nonconj,
    "maps": maps,
}


def generate(name: str, seed: int) -> list[Request]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))

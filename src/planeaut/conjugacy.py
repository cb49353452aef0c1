"""Non-conjugacy criterion for pairs of shift-conjugated quasi-cyclic subgroups.

Two shift maps with coefficient sequences {a_k}, {b_k} can only have
conjugate subgroups if scalars beta, gamma exist with

    a_k * beta^(p^k + 1) = gamma * b_k     for all large k.

(The gamma factor comes from the x1-scaling of the conjugator; at gamma = 1
this is the bare condition on the sequences.)  With eventually-periodic
sequences the search is exactly decidable for beta ranging over rational
multiples of p-power roots of unity and gamma over arbitrary nonzero
scalars:

* supports must eventually coincide, otherwise every candidate fails at
  infinitely many indices;
* on an infinite common support, beta^(p^k + 1) is eventually constant for
  class members (the root part stabilizes, the rational part must be +-1),
  so the ratios b_k/a_k must be eventually constant;
* candidate pairs come from the exact roots of the anchor ratio equation
  beta^(p^k - p^k*) = (a_k* b_k)/(a_k b_k*), one root per rational split:
  the other roots differ from it by a kernel element kappa of order
  dividing p^k*, and kappa^(p^k + 1) = kappa for k >= k* is absorbed into
  gamma, so there is no search cap.  Each candidate is verified over a
  window long enough that periodicity covers the rest.

A reported certificate therefore means: every (beta, gamma) in the searched
class violates the condition at infinitely many indices.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import (CycNum, DomainMismatchError, RootOfUnity,
                         root_of_unity_splits)
from .endo import TriangularAffine, compose
from .prufer import CoeffSequence, EventuallyPeriodic, conj_closed_form

SATISFIABLE = "condition-satisfiable"
CERTIFICATE = "non-conjugate-certificate"


class BinarySequence(EventuallyPeriodic):
    """An infinite 0/1 sequence: finite prefix plus repeating tail block."""

    __slots__ = ()

    def __init__(self, prefix, tail):
        super().__init__((int(x) for x in prefix), (int(x) for x in tail))
        if any(x not in (0, 1) for x in self.prefix + self.tail):
            raise ValueError("entries must be bits")

    bit = EventuallyPeriodic.entry


def support_mismatch(a: EventuallyPeriodic, b: EventuallyPeriodic,
                     k0: int = 0) -> tuple[int, int, list[int]]:
    """(join, period, offsets): past join = max(k0, both prefix lengths) the
    supports of a and b differ exactly at join + o + m*period, o in offsets.

    An entry is in the support when it is nonzero, so a bit sequence is its
    own support pattern.  Any disagreement inside the joint periodic part
    recurs forever, so one lcm-period past both prefixes decides it.
    """
    join, period = a.joint_region(b, k0)
    return join, period, [o for o in range(period)
                          if bool(a.entry(join + o)) != bool(b.entry(join + o))]


def differ_infinitely(lam: EventuallyPeriodic, mu: EventuallyPeriodic) -> bool:
    """Whether the supports of two sequences (for bit sequences, the bits
    themselves) disagree at infinitely many k."""
    return bool(support_mismatch(lam, mu)[2])


def omega0_family(count: int) -> list[BinarySequence]:
    """count sequences that pairwise disagree at infinitely many indices.

    Member i repeats the block 1, 0, ..., 0 of length i + 2; distinct periods
    force infinitely many support disagreements for every pair.
    """
    if count < 2:
        raise ValueError("need at least two sequences to compare")
    return [BinarySequence((), (1,) + (0,) * (i + 1)) for i in range(count)]


# ---------------------------------------------------------------------------

class ConjugacyReport:
    """Outcome of the necessary-condition search.

    On a satisfiable verdict: beta (root part beta_root), gamma and the index
    effective_from from which it holds.  On a certificate: the periodic index
    set (preamble, period, offsets) witnessing failure, and the reason.
    """

    __slots__ = ("verdict", "beta", "beta_root", "gamma", "effective_from",
                 "preamble", "period", "offsets", "reason")

    def __init__(self, verdict, beta=None, beta_root=None, gamma=None,
                 effective_from=None, preamble=None, period=None, offsets=None,
                 reason=""):
        self.verdict = verdict
        self.beta = beta
        self.beta_root = beta_root
        self.gamma = gamma
        self.effective_from = effective_from
        self.preamble = preamble
        self.period = period
        self.offsets = offsets
        self.reason = reason

    @property
    def satisfiable(self) -> bool:
        return self.verdict == SATISFIABLE

    def __repr__(self):
        if self.satisfiable:
            return (f"ConjugacyReport({self.verdict}, beta={self.beta}, "
                    f"gamma={self.gamma}, from k={self.effective_from})")
        return (f"ConjugacyReport({self.verdict}, preamble={self.preamble}, "
                f"period={self.period}, offsets={self.offsets})")


def _integer_root(n: int, t: int) -> int | None:
    """Exact t-th root of n >= 0, or None."""
    if n < 2 or t == 1:
        return n
    lo, hi = 1, 1
    while hi ** t < n:
        hi <<= 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** t < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** t == n else None


def _rational_roots(q: Fraction, t: int) -> list[Fraction]:
    """All rational r with r^t = q."""
    if t == 1:
        return [q]
    if q == 0:
        return []
    negative = q < 0
    if negative and t % 2 == 0:
        return []
    num = _integer_root(abs(q.numerator), t)
    den = _integer_root(q.denominator, t)
    if num is None or den is None:
        return []
    r = Fraction(num, den)
    if negative:
        return [-r]
    return [r, -r] if t % 2 == 0 else [r]


def _root_power_solution(p: int, t: int, target: RootOfUnity) -> RootOfUnity:
    """The omega in C_{p^infty} of least exponent with omega^t = target."""
    a, u = 0, t
    while u % p == 0:
        u //= p
        a += 1
    level, j = target.level, target.exp
    mod = p ** level
    e0 = (j * pow(u, -1, mod)) % mod if level else 0
    return RootOfUnity(p, a + level, e0)


def _beta_power(scale: Fraction, root: RootOfUnity, e: int) -> CycNum:
    """(scale * root)^e without big field exponentiations."""
    return CycNum.rational(scale ** e) * (root ** e).to_field()


def _verify_candidate(a: CoeffSequence, b: CoeffSequence, start: int,
                      join: int, period: int, scale: Fraction,
                      root: RootOfUnity, gamma: CycNum) -> bool:
    """Exact check of a_k beta^(p^k+1) = gamma b_k for every k >= start.

    Direct verification runs up to one period past the point where both the
    sequences and beta^(p^k+1) have become periodic (root part stabilized,
    |scale| = 1 whenever the common support is infinite); beyond that the
    condition repeats verbatim.
    """
    p = a.prime
    stabilized = max(join, root.level, 1)
    for k in range(start, stabilized + period):
        ca, cb = a.coeff(k), b.coeff(k)
        if ca.is_zero and cb.is_zero:
            continue
        if ca * _beta_power(scale, root, p ** k + 1) != gamma * cb:
            return False
    return True


def _candidates_from(a: CoeffSequence, b: CoeffSequence, start: int,
                     join: int, period: int, infinite_support: bool):
    """The best verified (scale, root, gamma) witness valid from `start`, or None."""
    p = a.prime
    window_end = join + 2 * period
    common = [k for k in range(start, window_end)
              if not a.coeff(k).is_zero and not b.coeff(k).is_zero]
    if not common:
        return (Fraction(1), RootOfUnity.one(p), CycNum.one())
    k_star = common[0]
    if len(common) == 1:
        raw = [(Fraction(1), RootOfUnity.one(p))]
    else:
        k2 = common[1]
        t = p ** k2 - p ** k_star
        c = (a.coeff(k_star) * b.coeff(k2)) / (a.coeff(k2) * b.coeff(k_star))
        raw = []
        for q, rho in root_of_unity_splits(c, p):
            root = _root_power_solution(p, t, rho)
            for scale in _rational_roots(q, t):
                raw.append((scale, root))
    raw.sort(key=lambda sr: (sr[1].level, sr[1].exp, abs(sr[0] - 1), sr[0] < 0))
    for scale, root in raw:
        if infinite_support and abs(scale) != 1:
            continue
        gamma = (a.coeff(k_star) * _beta_power(scale, root, p ** k_star + 1)
                 / b.coeff(k_star))
        if _verify_candidate(a, b, start, join, period, scale, root, gamma):
            return (scale, root, gamma)
    return None


def necessary_condition(a: CoeffSequence, b: CoeffSequence,
                        k0: int | None = None) -> ConjugacyReport:
    """Decide the scalar matching condition between two coefficient sequences.

    Returns a satisfiable report carrying a witness (beta, gamma) and the
    smallest index from which it holds, or a non-conjugacy certificate
    asserting that every candidate in the searched class (beta a rational
    multiple of a p-power root of unity, gamma an arbitrary nonzero scalar)
    fails at infinitely many indices.
    """
    if a.prime != b.prime:
        raise DomainMismatchError(f"mixed primes {a.prime} and {b.prime}")
    if k0 is None:
        k0 = max(len(a.prefix), len(b.prefix))
    if k0 < 0:
        raise ValueError("k0 must be nonnegative")
    join, period, mismatch = support_mismatch(a, b, k0)
    if mismatch:
        return ConjugacyReport(
            CERTIFICATE, preamble=join, period=period, offsets=mismatch,
            reason="supports disagree on a periodic index set")
    common_offsets = [o for o in range(period)
                      if not a.coeff(join + o).is_zero]
    if common_offsets:
        ratios = [b.coeff(join + o) / a.coeff(join + o) for o in common_offsets]
        if any(r != ratios[0] for r in ratios[1:]):
            return ConjugacyReport(
                CERTIFICATE, preamble=join, period=period,
                offsets=common_offsets,
                reason="eventual ratios b_k/a_k are not constant")
    finite_mismatch = [k for k in range(k0, join)
                       if a.coeff(k).is_zero != b.coeff(k).is_zero]
    first_start = k0 if not finite_mismatch else max(finite_mismatch) + 1
    starts = {first_start, join}
    starts.update(k + 1 for k in range(first_start, join)
                  if not a.coeff(k).is_zero and not b.coeff(k).is_zero)
    for start in sorted(starts):
        hit = _candidates_from(a, b, start, join, period, bool(common_offsets))
        if hit is not None:
            scale, root, gamma = hit
            beta = CycNum.rational(scale) * root.to_field()
            return ConjugacyReport(
                SATISFIABLE, beta=beta, beta_root=root, gamma=gamma,
                effective_from=start,
                reason="witness verified on the full periodic window")
    raise AssertionError("periodic structure admitted no witness and no certificate")


def verify_subgroup_conjugator(a: CoeffSequence, b: CoeffSequence,
                               theta: TriangularAffine, levels: int) -> bool:
    """Check the intertwining identity conj_a(alpha) * theta = theta * conj_b(alpha).

    One primitive root per level generates the level subgroup, so levels
    1..levels are each checked with a single alpha.
    """
    if a.prime != b.prime:
        raise DomainMismatchError(f"mixed primes {a.prime} and {b.prime}")
    if levels < 1:
        raise ValueError("levels must be at least 1")
    for n in range(1, levels + 1):
        alpha = RootOfUnity(a.prime, n, 1)
        lhs = compose(conj_closed_form(a, alpha), theta)
        rhs = compose(theta, conj_closed_form(b, alpha))
        if lhs != rhs:
            return False
    return True

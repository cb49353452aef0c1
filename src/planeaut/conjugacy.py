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
  so the ratios b_k/a_k must be eventually constant, which is decided
  cross-multiplied against one reference offset r, b_k a_r = b_r a_k, with
  no inverse;
* candidate pairs come from the exact roots of the anchor ratio equation
  beta^(p^k - p^k*) = (a_k* b_k)/(a_k b_k*), one root per rational split;
  one inverse, 1/(a_k b_k*), serves that ratio and 1/b_k* = a_k/(a_k b_k*),
  so each candidate's gamma is a product;
  as p^k - p^k* = p^k* (p^(k-k*) - 1), the p-part of the exponent is p^k*,
  so the other roots differ from it by a kernel element kappa of order
  dividing p^k*, and kappa^(p^k + 1) = kappa for k >= k* is absorbed into
  gamma, so there is no search cap.  Each candidate is verified over a window long
  enough that periodicity covers the rest.

A reported certificate therefore means: every (beta, gamma) in the searched
class violates the condition at infinitely many indices.
"""

from __future__ import annotations

from .cyclotomic import (MAX_POWER_BITS, CycNum, DomainMismatchError,
                         RootOfUnity, over_power_budget, root_of_unity_splits)
# compose and conj_closed_form are unused here, but perfbench/tracing.py wraps them
from .endo import TriangularAffine, compose  # noqa: F401
from .prufer import CoeffSequence, conj_closed_form, exponent_of  # noqa: F401

SATISFIABLE = "condition-satisfiable"
CERTIFICATE = "non-conjugate-certificate"
# omega-family compares count*(count-1)/2 pairs at a cost near count^4 (64: 1 s)
MAX_FAMILY = 64
# necessary_condition works with p^k near k0, so its time grows with the bit
# length of p^k0: 0.12 s at 10^6 and 0.61 s at 10^7 for p = 2
MAX_K0 = 10 ** 6


def differ_infinitely(lam: CoeffSequence, mu: CoeffSequence) -> bool:
    """Whether the supports (the nonzero entries) of two coefficient sequences
    disagree at infinitely many k.  A disagreement in the joint periodic part
    recurs forever, so one lcm-period past both prefixes decides it."""
    join, period = lam.joint_region(mu)
    return any(bool(lam.coeff(k)) != bool(mu.coeff(k))
               for k in range(join, join + period))


def omega0_family(count: int) -> list[CoeffSequence]:
    """count sequences that pairwise disagree at infinitely many indices.

    Member i repeats the block 1, 0, ..., 0 of length i + 2; distinct periods
    force infinitely many support disagreements for every pair.  The entries
    are rational, so the prime (2) is immaterial.
    """
    if count < 2:
        raise ValueError("need at least two sequences to compare")
    if count > MAX_FAMILY:
        raise ValueError(f"count must be at most {MAX_FAMILY}")
    return [CoeffSequence(2, (), (1,) + (0,) * (i + 1)) for i in range(count)]


# ---------------------------------------------------------------------------

class ConjugacyReport:
    """Outcome of the necessary-condition search.

    On a satisfiable verdict: beta, gamma and the index effective_from from
    which it holds.  On a certificate: the periodic index set (preamble,
    period, offsets) witnessing failure, and the reason.
    """

    __slots__ = ("verdict", "beta", "gamma", "effective_from",
                 "preamble", "period", "offsets", "reason")

    def __init__(self, verdict, beta=None, gamma=None, effective_from=None,
                 preamble=None, period=None, offsets=None, reason=""):
        self.verdict = verdict
        self.beta = beta
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
    if n < 2:
        return n
    if t >= n.bit_length():
        return None  # 2^t > n, so no root is 2 or more
    lo, hi = 1, 1 << (n.bit_length() // t + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** t < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** t == n else None


def _rational_roots(num: int, den: int, t: int) -> list[CycNum]:
    """All rational r with r^t = num/den, for num != 0 and den > 0 in lowest
    terms and t >= 1, as level-0 values: r, or r > 0 then -r."""
    if num < 0 and t % 2 == 0:
        return []
    r, d = _integer_root(abs(num), t), _integer_root(den, t)
    if r is None or d is None:
        return []
    r = CycNum(None, 0, ((0, r if num > 0 else -r),), d)
    return [r, -r] if t % 2 == 0 else [r]


def _root_power_solution(p: int, a: int, u: int, target: RootOfUnity) -> RootOfUnity:
    """The omega in C_{p^infty} of least exponent with omega^(p^a u) = target,
    for u prime to p."""
    level, j = target.level, target.exp
    mod = p ** level
    e0 = (j * pow(u, -1, mod)) % mod if level else 0
    return RootOfUnity(p, a + level, e0)


def _matches(a: CoeffSequence, b: CoeffSequence, k: int, gamma, beta_power,
             g_k: CycNum = CycNum.zero()) -> bool:
    """Whether g_k = gamma*b_k - a_k*beta^(p^k+1), where beta_power(e) is
    beta^e, formed only where a_k != 0.  The sides are compared, not
    subtracted, so scalars of two towers meet in a sum only where g_k != 0."""
    lhs = g_k
    if not a.coeff(k).is_zero:
        term = a.coeff(k) * beta_power(exponent_of(a.prime, k))
        lhs = lhs + term if lhs else term
    return lhs == gamma * b.coeff(k)


def _candidates_from(a: CoeffSequence, b: CoeffSequence, start: int,
                     common: list[int], join: int, period: int,
                     infinite_support: bool):
    """The best verified (scale, root, gamma) witness valid from `start`, or
    None; `common` lists the common support indices from `start` on."""
    p = a.prime
    if not common:
        return (CycNum.one(), RootOfUnity.one(p), CycNum.one())
    k_star = common[0]
    a_star, b_star = a.coeff(k_star), b.coeff(k_star)
    if len(common) == 1:
        raw = [(CycNum.one(), RootOfUnity.one(p))]
        a_over_b = a_star * b_star.inverse()
    else:
        k2 = common[1]
        u = p ** (k2 - k_star) - 1  # the exponent p^k2 - p^k* is p^k* u
        # one inverse serves the anchor ratio c and 1/b_k* = a_k2 * inv
        inv = (a.coeff(k2) * b_star).inverse()
        c = a_star * b.coeff(k2) * inv
        a_over_b = a_star * a.coeff(k2) * inv
        raw = []
        for q, rho in root_of_unity_splits(c, p):
            root = _root_power_solution(p, k_star, u, rho)
            for scale in _rational_roots(q.terms[0][1], q.den, p ** k_star * u):
                raw.append((scale, root))
    # one split per root, whose _rational_roots list r > 0 before -r, as the
    # stable sort keeps them
    raw.sort(key=lambda sr: (sr[1].level, sr[1].exp))
    for scale, root in raw:
        if infinite_support and not (scale.is_one or scale.is_minus_one):
            continue
        # a rational times a root: each power is one exponent product
        beta = scale * root.to_field()
        gamma = a_over_b * beta ** exponent_of(p, k_star)
        # all is periodic past max(join, root.level, 1), so one more period
        # decides every k >= start; where a_k = 0 the condition does not involve
        # beta, which spares scale^(p^k+1) past a finite support
        if all(_matches(a, b, k, gamma, beta.__pow__)
               for k in range(start, max(join, root.level, 1) + period)):
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

    One joint period past join is read: past it both sequences repeat with
    that period, every start is at most join, and _candidates_from reads two
    anchors.  A second period would only extend a lone anchor k* >= join by
    k* + period, a pair of ratio 1 whose first sorted candidate, scale 1 and
    root 1, is the one-anchor witness.
    """
    if a.prime != b.prime:
        raise DomainMismatchError(f"mixed primes {a.prime} and {b.prime}")
    if k0 is None:
        k0 = max(len(a.prefix), len(b.prefix))
    if k0 < 0:
        raise ValueError("k0 must be nonnegative")
    if k0 > MAX_K0:
        raise ValueError(f"k0 must be at most {MAX_K0}")
    join, period = a.joint_region(b, k0)
    # one pass: where the supports disagree, and where both entries are nonzero
    mismatch, common = [], []
    for k in range(k0, join + period):
        a_zero, b_zero = a.coeff(k).is_zero, b.coeff(k).is_zero
        if a_zero != b_zero:
            mismatch.append(k)
        elif not a_zero:
            common.append(k)
    periodic = [k - join for k in mismatch if k >= join]
    if periodic:
        return ConjugacyReport(
            CERTIFICATE, preamble=join, period=period, offsets=periodic,
            reason="supports disagree on a periodic index set")
    common_offsets = [k - join for k in common if k >= join]
    # with a_k, a_r != 0, b_k/a_k = b_r/a_r is b_k*a_r = b_r*a_k: no inverse
    pairs = [(a.coeff(join + o), b.coeff(join + o)) for o in common_offsets]
    if any(b_k * pairs[0][0] != pairs[0][1] * a_k for a_k, b_k in pairs[1:]):
        return ConjugacyReport(
            CERTIFICATE, preamble=join, period=period, offsets=common_offsets,
            reason="eventual ratios b_k/a_k are not constant")
    # every mismatch left lies below join
    first_start = mismatch[-1] + 1 if mismatch else k0
    anchors = [k for k in common if k >= first_start]
    # any start up to join sees the anchors and window of the last one listed
    starts = [first_start] + [k + 1 for k in anchors if k < join]
    for i, start in enumerate(starts):
        hit = _candidates_from(a, b, start, anchors[i:], join, period,
                               bool(common_offsets))
        if hit is not None:
            scale, root, gamma = hit
            beta = scale * root.to_field()
            return ConjugacyReport(SATISFIABLE, beta=beta, gamma=gamma,
                                   effective_from=start)
    raise AssertionError("periodic structure admitted no witness and no certificate")


def verify_subgroup_conjugator(a: CoeffSequence, b: CoeffSequence,
                               theta: TriangularAffine, levels: int) -> bool:
    """Check conj_a(alpha) * theta = theta * conj_b(alpha) at every level
    1..levels from the coefficients of theta = (gamma*x1 + g(x2), beta*x2 +
    beta0), with no composition.

    By conj_closed_form, the identity at a root of level n holds exactly when
    beta0 = 0, g_{p^k+1} = gamma*b_k - a_k*beta^(p^k+1) for every k < n and
    g_d = 0 for every other d != 1 with p^n not dividing d - 1.  alpha ->
    conj_a(alpha) is a homomorphism and a root of level `levels` generates
    every lower level, so that level decides all.  Past max(join, k_g), k_g
    the least k with p^k + 1 > deg g, g has no term and both sequences repeat
    with the joint period P; the condition at k and k + P gives a_k = b_k = 0
    or beta^(p^k (p^P - 1)) = 1, and so holds on the residue class of k.  Two
    periods past that point decide every k.  A beta that is no root of unity
    meets the parser's budget: beta^(p^k+1) estimated at more than
    MAX_POWER_BITS numerator bits raises ValueError before it is formed.
    """
    if a.prime != b.prime:
        raise DomainMismatchError(f"mixed primes {a.prime} and {b.prime}")
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if theta.beta0:
        return False
    p = a.prime
    degrees = theta.g.x2_profile()
    join, period = a.joint_region(b)
    k_g = 0
    while exponent_of(p, k_g) <= max(degrees, default=0):
        k_g += 1
    shifts = [exponent_of(p, k) for k in range(min(levels, max(join, k_g) + 2 * period))]
    # any other g_d vanishes unless p^levels divides d - 1; p^(bit length of
    # d) exceeds d - 1, so p^levels is formed no larger than that
    if any(d not in shifts and (d == 0 or (d - 1) % p ** min(levels, d.bit_length()))
           for d in degrees):
        return False
    beta = theta.beta

    def beta_power(e: int) -> CycNum:
        if over_power_budget(beta, e):
            raise ValueError(f"beta^{e} over the budget of {MAX_POWER_BITS} "
                             "numerator bits")
        return beta ** e

    return all(_matches(a, b, k, theta.gamma, beta_power, theta.g.coefficient(0, d))
               for k, d in enumerate(shifts))

"""Certificate construction: verify the wreath-product hypotheses to depth N.

A certificate records, for an instance (d, m, b, x0, witness primes):

  * condition (1): v_p1(b) >= 1 and v_p1(x0) = 1;
  * condition (2) (only for d >= 4): the four valuation hypotheses at
    p2, plus the predicted ramification tower as a consistency probe;
  * structural invariants of the instance itself;
  * for every depth n <= N: the critical-orbit integer F_n computed two
    independent ways (a closed recursion in M_n, and direct exact
    evaluation of the critical orbit), their coprimality to the bad
    primes, the depth-n congruence that drives the all-depths induction,
    the quadratic-nonresidue test of +-F_n at the unit-square prime
    (which certifies that a fresh odd-valuation ramified prime exists at
    this depth), an Eisenstein check of f^n - x0 at p1 for n <= 3, and
    the search for an exhibited odd-valuation prime q among the primes
    up to a bound (a bound of 1 searches none), made once for all depths
    by stepping the critical orbit modulo products of 16 primes, each
    product decided by one pass through the depths and one gcd
    (``orbit_prime_divisors``). In the odd cases only the
    primes p with (d(d-2) | p) = 1, and those of 2 d (d-2) s t, are
    stepped: the odd closed form F_n = A_n M_n^2 - B_n makes A_n B_n, which
    is d(d-2) times a square, a square mod any other prime of F_n. This
    holds only where that closed form does, so it is used only once the
    structural relations hold.

The witness check builds no discriminant. Once the structural relations
hold (they are checked before any depth), a prime q outside the bad set
divides none of d, s, t or den(b), so the critical-orbit factorization
of the discriminant gives
v_q(disc(f^n - x0)) = sum over k <= n of d^(n-k) v_q(F_k), and both of
the witness's discriminant facts are read off F_1, ..., F_n
(``witness_report``). ``poly.disc_levels`` is the test suite's
oracle for this identity.

Passing depth n for all n <= N certifies that the Galois group of the
n-th preimage field is the full n-fold wreath product of S_d for every
n <= N. The certificate claims exactly the checked depths; the
all-depths conclusion rests on the inductive congruence pattern, which
is re-verified at each certified depth.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from . import newton
from .arith import (
    EXACT,
    INFINITY,
    CapExceededError,
    Number,
    bit_length,
    is_prime,
    is_square,
    legendre,
    multiplicity,
    primality_evidence,
    primes_between,
    residue,
    val,
)
from .construct import EVEN_CASE, ODD_CASE_1, IterInstance
from .poly import critical_orbit, orbit_bits_step
from .polymod import iterates_minus_x0

DEFAULT_DEPTH = 3
FN_BIT_CAP = 2**24
EXHIBIT_PRIME_BOUND = 10**6
# the largest witness-search bound: the search streams its primes from
# one 32 kB sieve window, so this bounds its time, not its memory
EXHIBIT_EFFORT_CAP = 10**7
COFACTOR_PRIMALITY_BIT_LIMIT = 4096
EISENSTEIN_MAX_LEVEL = 3

HYPOTHESES_FULL = "conditions-1-2-3"
HYPOTHESES_LOW_DEGREE = "conditions-1-3"


class CertifyError(RuntimeError):
    """A relation of the F_n recursion failed; ``certify`` records it as
    a failed check and never lets it out."""


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class ConditionOneReport:
    ok: bool
    v_p1_b: object
    v_p1_x0: object
    checks: list[CheckResult]


@dataclass
class ConditionTwoReport:
    skipped: bool
    ok: bool
    checks: list[CheckResult]
    tower: Optional[tuple[newton.TowerLevel, ...]] = None


@dataclass
class ExhibitReport:
    """An explicit prime with odd valuation in F_n, if one was cheap to find."""

    found: bool
    q: Optional[int] = None
    valuation_in_fn: Optional[int] = None
    lower_levels_clean: Optional[bool] = None
    disc_valuation_odd: Optional[bool] = None
    evidence: str = "deterministic"
    note: str = ""


@dataclass
class CertDepthRecord:
    n: int
    e_n: int
    M_n: Decimal
    F_n: Decimal
    F_n_bits: int
    F_n_mod_p: int
    nonsquare_f: bool
    nonsquare_neg_f: bool
    coprimality_ok: bool
    congruence_ok: bool
    exhibited_q: ExhibitReport
    eisenstein_ok: Optional[bool] = None  # None when not checked at this depth


@dataclass
class Certificate:
    instance: IterInstance
    depth: int
    hypothesis_set: str
    condition1: ConditionOneReport
    condition2: ConditionTwoReport
    structural: list[str]  # violated structural relations (empty = ok)
    records: list[CertDepthRecord]
    verdict_pass: bool
    first_failure: Optional[str]
    evidence_level: str
    checks: list[CheckResult]  # in check order; the verdict reads its first failure


# ---------------------------------------------------------------------------
# the two F_n computations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FnValue:
    """Depth n's e_n, M_n and F_n; ``fn_sequence`` yields M_n and F_n
    as integral Decimals, and the congruence and nonsquare checks read
    them through ``arith.residue``, so int values are accepted too."""

    n: int
    e_n: int
    M_n: Number
    F_n: Number

    @property
    def bits(self) -> int:
        return bit_length(self.F_n)


def fn_sequence(inst: IterInstance, depth: int) -> Iterator[FnValue]:
    """F_n, M_n, e_n for n = 1..depth, each F_n computed two ways.

    The closed forms, from e_1 = d and e_(n+1) = m e_n + (d - m):

      even case, M_1 = -1:
        F_n = s^(d e_n - 1) (d-1)^((d-1)^n) M_n - d^(d^n) t^(d^n - 1) D^(d^n),
        M_(n+1) = M_n^(d-1) ((d-1)^((d-1)^n) s^(d(e_n - 1)) M_n - d^(d^n) (tD)^(d^n - 1));
      odd cases, M_1 = 1:
        F_n = 4^((d-2)^(n-1)) (d-2)^((d-2)^n) s^(2 e_n - 2) M_n^2 - d^(d^n) t^(2 d^n - 2),
        M_(n+1) = M_n^(d-2) F_n.

    The sequence steps lazily: M_n and e_n are formed at the top of
    depth n from depth n - 1's values, so a run to depth N never builds
    M_(N+1), the largest product of the run, and a caller that stops
    early builds nothing past the depth it stopped at.

    M_n, F_n and the critical orbit are exact Decimals: libmpdec's
    transform multiplication is many times faster than CPython's
    Karatsuba at Mbit sizes, and the certificate reads these values
    only as residues, bit lengths and decimal strings, none of which
    converts them to int. Only small ints (d, s, t, c, u, v and the
    exponents) are converted, and every step runs in ``arith.EXACT``.

    Each F_n is checked against its defining value
    s^(-(d-m)) (dtc)^(d^n) [w_n - x0^(d-m)], evaluated exactly on the
    critical orbit w_n (``poly.critical_orbit``), with c = D in the even
    case and c = t in the odd cases. With w_n = W/S and x0^(d-m) = u/v,
    S = (d den(b))^(d^n) equals (dtc)^(d^n) at every n exactly when
    (tc)^d = den(b)^d, which is checked once; the check at each depth is
    then the integer identity W v - u S = F_n s^(d-m) v, so no rational
    is reduced and no cancelling factor is formed. A mismatch means a
    transcribed formula is wrong and is a hard certificate failure.
    """
    d, m, s, t = inst.d, inst.m, inst.s, inst.t
    even = inst.parity_case == EVEN_CASE
    c = inst.big_d if even else t
    x0_shift = inst.x0 ** (d - m)
    u, v = x0_shift.numerator, x0_shift.denominator
    if (t * c) ** d != inst.b.denominator**d:
        raise CertifyError(
            f"depth1.dual_path_Fn: t*c = {t * c} is not den(b) = {inst.b.denominator} "
            "(up to sign for even d), so the recursion cannot match direct evaluation"
        )
    dec_s, dec_d, dec_t, dec_c, dec_tc = (Decimal(k) for k in (s, d, t, c, t * c))
    dec_u, dec_v, rhs_scale = Decimal(u), Decimal(v), Decimal(s ** (d - m) * v)
    m_n, e_n = Decimal(-1 if even else 1), d
    for n, (w, scale) in zip(range(1, depth + 1), critical_orbit(inst, Decimal)):
        with decimal.localcontext(EXACT):
            if n > 1:
                # M_n from depth n - 1's unit, tail and F_(n-1)
                if even:
                    m_n = m_n ** (d - 1) * (unit * dec_s ** (d * (e_n - 1)) * m_n - tail)
                else:
                    m_n = m_n ** (d - 2) * f_rec
                e_n = m * e_n + (d - m)
            if even:
                unit = Decimal(d - 1) ** ((d - 1) ** n)
                tail = dec_d ** (d**n) * dec_tc ** (d**n - 1)
                f_rec = dec_s ** (d * e_n - 1) * unit * m_n - tail * dec_c
            else:
                sq_coeff = (
                    Decimal(4) ** ((d - 2) ** (n - 1))
                    * Decimal(d - 2) ** ((d - 2) ** n)
                    * dec_s ** (2 * e_n - 2)
                )
                f_rec = sq_coeff * m_n * m_n - dec_d ** (d**n) * dec_t ** (2 * d**n - 2)
            # f_def = F_rec, cross-multiplied with w_n = w / scale and
            # (dtc)^(d^n) = scale cancelled
            agree = w * dec_v - dec_u * scale == f_rec * rhs_scale
        if not agree:
            raise CertifyError(
                f"depth{n}.dual_path_Fn: recursion and direct evaluation disagree"
            )
        yield FnValue(n, e_n, m_n, f_rec)


def deepest_depth_in_cap(inst: IterInstance) -> int:
    """The deepest depth N with bits(F_n) <= FN_BIT_CAP at every n <= N,
    from a bound on bits(F_n) walked on the critical orbit's bit lengths
    (``poly.orbit_bits_step``): no orbit value, power of d, D or M_n is
    formed.

    ``fn_sequence`` checks F_n s^k v = W_n v - u S_n with k = d - m and
    x0^k = u/v, so with x0 = s/t, F_n = W_n / s^k - S_n / t^k and
    bits(F_n) <= max(bits(W_n) - bits(s^k), bits(S_n) - bits(t^k)) + 2.
    s^k and t^k are formed only for 0 < k <= 2; any other shape fails a
    structural relation before an F_n is built, and its bound subtracts
    nothing. The walk stops after bits(FN_BIT_CAP) - 1 depths for any
    instance, valid or not, and raises on none.
    """
    d, m, b, k = inst.d, inst.m, inst.b, inst.d - inst.m
    sk_bits, tk_bits = ((inst.s**k).bit_length(), (inst.t**k).bit_length()) if 0 < k <= 2 else (0, 0)
    w_bits, s_bits = (m * b.numerator).bit_length(), (d * b.denominator).bit_length()
    for n in range(1, FN_BIT_CAP.bit_length()):
        w_bits, s_bits = orbit_bits_step(inst, w_bits, s_bits)
        if max(w_bits - sk_bits, s_bits - tk_bits) + 2 > FN_BIT_CAP:
            return n - 1
    return FN_BIT_CAP.bit_length() - 1


def expected_e_n(inst: IterInstance, n: int) -> int:
    """e_n by direct summation of the defining geometric sum."""
    d = inst.d
    if inst.parity_case == EVEN_CASE:
        return sum((d - 1) ** k for k in range(n + 1))
    return (d - 2) ** n + 2 * sum((d - 2) ** k for k in range(n))


def fn_coprimality_ok(inst: IterInstance, f_n: Number) -> bool:
    bad = inst.bad_product
    return math.gcd(residue(f_n, bad), bad) == 1


def congruence_holds(inst: IterInstance, value: FnValue) -> bool:
    """Even case: s^(d e_n) (d-1)^((d-1)^n) M_n = (-(d-1)^(d-1) s^(d^2))^(d^(n-1))
    mod d*t*D. Odd case 1: the square term of F_n vanishes mod s (and
    hence F_n = -d^(d^n) t^(2 d^n - 2) mod p1). Odd case 2:
    4^(...) (d-2)^(...) s^(2 e_n) M_n^2 = (4 (d-2)^(d-2) s^(2d))^(d^(n-1))
    mod d*t^2.

    Every side is evaluated on residues: each power by three-argument
    ``pow`` modulo the absolute value of the modulus, and M_n and F_n
    reduced once (``arith.residue``), so no factor is formed at full
    size. The exact-integer evaluation of the same relations is the
    test suite's oracle.
    """
    d, s, t = inst.d, inst.s, inst.t
    n, e_n = value.n, value.e_n
    if inst.parity_case == EVEN_CASE:
        k = abs(d * t * inst.big_d)
        lhs = pow(s, d * e_n, k) * pow(d - 1, (d - 1) ** n, k) * residue(value.M_n, k)
        rhs = pow(-pow(d - 1, d - 1, k) * pow(s, d * d, k), d ** (n - 1), k)
        return (lhs - rhs) % k == 0

    def square_term(k: int) -> int:
        m_n = residue(value.M_n, k)
        return (
            pow(4, (d - 2) ** (n - 1), k) * pow(d - 2, (d - 2) ** n, k)
            * pow(s, 2 * e_n - 2, k) * m_n * m_n
        )

    if inst.parity_case == ODD_CASE_1:
        k = abs(inst.p1)
        reduced = residue(value.F_n, k) + pow(d, d**n, k) * pow(t, 2 * d**n - 2, k)
        return square_term(abs(s)) % s == 0 and reduced % k == 0
    k = abs(d * t * t)
    rhs = pow(4 * pow(d - 2, d - 2, k) * pow(s, 2 * d, k), d ** (n - 1), k)
    return (square_term(k) * s * s - rhs) % k == 0


def nonsquare_pair(inst: IterInstance, f_n: Number) -> tuple[bool, bool]:
    """legendre(F_n | p) = legendre(-F_n | p) = -1 at the unit-square prime.

    Since p = 1 (mod 4), -1 is a square mod p and the two symbols agree;
    both are still computed. A -1 here certifies that no unit multiple
    of F_n is a rational square, hence (by the critical-orbit
    factorization of the discriminant) that some prime away from the bad
    set divides disc(f^n - x0) to an odd power.
    """
    p = inst.p
    f = residue(f_n, p)
    return legendre(f, p) == -1, legendre(-f, p) == -1


def check_condition1(inst: IterInstance) -> ConditionOneReport:
    v_b = val(inst.b, inst.p1)
    v_x0 = val(inst.x0, inst.p1)
    checks = [
        CheckResult("condition1.v_p1_b", v_b is not INFINITY and v_b >= 1, f"v={v_b}"),
        CheckResult("condition1.v_p1_x0", v_x0 == 1, f"v={v_x0}"),
    ]
    return ConditionOneReport(
        ok=all(c.ok for c in checks), v_p1_b=v_b, v_p1_x0=v_x0, checks=checks
    )


def check_condition2(inst: IterInstance, depth: int) -> ConditionTwoReport:
    """The four valuation hypotheses at p2 (d >= 4 only), decided here
    and nowhere else, then, when all four hold, the predicted
    ramification tower to the certificate depth from the same two
    valuations (``newton.tower_from_valuations``) as a probe."""
    if inst.d <= 3:
        return ConditionTwoReport(skipped=True, ok=True, checks=[])
    p2 = inst.p2
    d, m = inst.d, inst.m
    v_b = val(inst.b, p2)
    v_x0 = val(inst.x0, p2)
    checks = [
        CheckResult("condition2a.p2_coprime_d_minus_m", (d - m) % p2 != 0, f"d-m={d - m}"),
    ]
    if v_b is INFINITY or v_x0 is INFINITY:
        checks.append(CheckResult("condition2b.v_p2_b_below_min", False, "b or x0 is 0"))
    else:
        checks.append(
            CheckResult(
                "condition2b.v_p2_b_below_min",
                v_b < min(v_x0, 0),
                f"v(b)={v_b}, v(x0)={v_x0}",
            )
        )
        checks.append(
            CheckResult(
                "condition2c.d_minus_m_divides_v_p2_b",
                d != m and v_b % (d - m) == 0,
                f"v(b)={v_b}",
            )
        )
        checks.append(
            CheckResult(
                "condition2d.gcd_m_v_p2_x0_over_b",
                math.gcd(m, v_x0 - v_b) == 1,
                f"v(x0/b)={v_x0 - v_b}",
            )
        )
    tower = None
    if all(c.ok for c in checks):
        try:
            tower = newton.tower_from_valuations(d, m, v_b, v_x0, depth)
        except ValueError as exc:
            checks.append(CheckResult("condition2.ramification_tower", False, str(exc)))
        else:
            checks.append(
                CheckResult(
                    "condition2.ramification_tower",
                    True,
                    f"levels={[lvl.scaled for lvl in tower]}",
                )
            )
    return ConditionTwoReport(
        skipped=False, ok=all(c.ok for c in checks), checks=checks, tower=tower
    )


def search_primes(inst: IterInstance, bound: int) -> Iterator[int]:
    """The primes <= bound that ``orbit_prime_divisors`` steps,
    ascending, streamed from ``primes_between``. On an odd-case instance
    whose structural relations hold, these are the primes p with
    (d(d-2) | p) = 1 and those of 2 d (d-2) s t, the only ones that can
    divide G_n (the proof is in ``orbit_prime_divisors``): about half of
    all, as d(d-2) = (d-1)^2 - 1 is never a square. Every other instance
    keeps every prime, and gets the sieve's own iterator.

    The primes of 2 d (d-2) s t, ``inst.bad_product`` in the odd cases,
    are kept as they come. For any other p the symbol depends only on
    p mod k = 4 d (d-2), so Euler's criterion is evaluated the first
    time the stream meets a residue class, and remembered: at most
    phi(k) times, since every prime of k divides the bad product.
    """
    primes = primes_between(2, bound)
    if inst.parity_case == EVEN_CASE or inst.violated_relations():
        return primes
    d = inst.d
    disc = d * (d - 2)
    k = 4 * disc
    bad = inst.bad_product

    def kept() -> Iterator[int]:
        square: dict[int, bool] = {}  # p mod k -> whether (d(d-2) | p) = 1
        for p in primes:
            if bad % p == 0:
                yield p
                continue
            r = p % k
            if r not in square:
                square[r] = pow(disc, (p - 1) // 2, p) == 1
            if square[r]:
                yield p

    return kept()


def orbit_prime_divisors(inst: IterInstance, bound: int, depth: int) -> list[list[int]]:
    """For n = 1, ..., depth: the primes q <= bound that divide
    G_n = W_n v - u S_n, ascending, where w_n = W_n / S_n is the critical
    orbit (``poly.critical_orbit``) and x0^(d-m) = u/v.

    ``fn_sequence`` checks the integer identity F_n s^(d-m) v = G_n at
    every depth, so every prime of F_n is among these, and so is every
    prime <= bound of s*v that divides G_n; ``factor_over`` tests each
    on F_n itself.

    Only the primes of ``search_primes`` are stepped. On an odd-case
    instance, a prime p of G_n that divides none of 2 d (d-2) s t has
    (d(d-2) | p) = 1, so about half of the primes are dropped. Proof:
    F_n = A_n M_n^2 - B_n with A_n = 4^((d-2)^(n-1)) (d-2)^((d-2)^n)
    s^(2 e_n - 2) and B_n = d^(d^n) t^(2 d^n - 2) (``fn_sequence``), and
    G_n = F_n s^2 t^2, as x0 = s/t in lowest terms makes v = t^2. So
    p | F_n, and p does not divide M_n, for then it would divide B_n.
    Hence A_n M_n^2 = B_n != 0 mod p, and A_n B_n = (A_n M_n)^2 is a
    nonzero square mod p; since (d-2)^n and d^n are odd, A_n B_n is
    d(d-2) times a square. The proof holds only where the odd closed
    form does, which rests on the structural relations (``fn_sequence``
    checks it against direct evaluation at every depth); so on an
    instance that breaks any relation, and on every even-case one,
    every prime <= bound is stepped.

    The primes are taken in groups of 16, and each group is decided in
    one pass. Modulo the group's product Q the pass steps W and
    Y = S / L, with L = d den(b), from W_0 = m num(b), Y_0 = 1, by
    W_(k+1) = W^m (W - d num(b) Y)^(d-m) and Y_(k+1) = Y^d L^(d-1): the
    pair recursion of ``poly.critical_orbit`` with S_k = L Y_k, which
    divides by nothing, so every prime of Q is decided. Each depth's
    test value W_n v - u L Y_n is G_n itself, since S_n = L Y_n; it is
    multiplied into one running product P mod Q, and one gcd
    g = gcd(P, Q) ends the pass. A prime p of Q divides P mod Q exactly
    when it divides P, and, being prime, exactly when it divides some
    depth's test value. Q is a product of distinct primes, so g is the
    product of exactly those primes of the group: the ones that divide
    some G_n with n <= depth. Only these are replayed alone, by the same
    recursion mod p, to find their depths.
    So the search costs one gcd per group for the whole run, whatever
    the depth or the size of F_n, keeps no residue of a group past its
    pass, and takes its groups from the stream of ``search_primes``, so
    it holds one sieve window whatever the bound. A bound below 2 builds
    no sieve and finds nothing, and one above EXHIBIT_EFFORT_CAP raises
    CapExceededError before any is built.
    """
    if bound < 0:
        raise ValueError(f"orbit_prime_divisors: bound {bound} is negative")
    if bound > EXHIBIT_EFFORT_CAP:
        raise CapExceededError(
            f"witness search bound {bound} is over the cap {EXHIBIT_EFFORT_CAP}"
        )
    found: list[list[int]] = [[] for _ in range(depth)]
    if bound < 2:
        return found
    d, m, b = inst.d, inst.m, Fraction(inst.b)
    x0_shift = Fraction(inst.x0) ** (d - m)
    u, v = x0_shift.numerator, x0_shift.denominator
    big_l = d * b.denominator
    scale, target, w_0 = d * b.numerator, u * big_l, m * b.numerator

    def test_values(q: int) -> Iterator[int]:
        """W_n v - u L Y_n mod q for n = 1, ..., depth."""
        w, y, lift = w_0 % q, 1, pow(big_l, d - 1, q)  # lift = L^(d-1) mod q
        for _ in range(depth):
            w = pow(w, m, q) * (w - scale * y) ** (d - m) % q
            y = pow(y, d, q) * lift % q
            yield w * v - target * y

    primes = search_primes(inst, bound)
    # a list, not a tuple: tuple() of an iterator builds its result by
    # resizing, so no freed 16-tuple is reused, and each parks on the
    # interpreter's tuple free list (up to 2000, about 0.35 MB resident)
    while group := list(itertools.islice(primes, 16)):
        q = math.prod(group)
        product = 1
        for value in test_values(q):
            product = product * value % q
        g = math.gcd(product, q)
        if g > 1:
            for p in group:
                if g % p == 0:
                    for n, value in enumerate(test_values(p)):
                        if value % p == 0:
                            found[n].append(p)
    return found


def factor_over(n: Number, primes: Iterable[int], bound: int) -> tuple[dict[int, int], Number]:
    """(factors, cofactor) of |n| over ``primes``, for an int or integral
    Decimal n: a prime -> exponent map in the order given, and the part
    of |n| left after dividing them out, of n's type.

    When ``primes`` holds every prime <= bound that divides n, this is
    trial division to bound, with its rule that a cofactor c with
    1 < c <= bound^2 has no prime factor below its square root and so is
    a prime factor. The cofactor is deliberately not classified further;
    callers decide how much primality evidence they want on it. 0 has
    no factorization and raises ValueError.
    """
    if n == 0:
        raise ValueError("factor_over: 0 has no factorization")
    n = abs(n) if isinstance(n, int) else n.copy_abs()
    factors: dict[int, int] = {}
    for q in primes:
        if residue(n, q) == 0:
            e = multiplicity(n, q)
            factors[q] = e
            with decimal.localcontext(EXACT):
                n //= q**e
    if 1 < n <= bound * bound:
        factors[int(n)] = 1
        n = 1
    return factors, n


def witness_report(
    inst: IterInstance, factorization: tuple[dict[int, int], Number], lower: Sequence[Number]
) -> ExhibitReport:
    """The witness rule: given the (factors, cofactor) of |F_n| and the
    lower levels F_1, ..., F_(n-1), exhibit a prime q with odd valuation
    in F_n, if there is one, and decide its two discriminant facts.

    A cofactor is primality-tested only when small enough to make that
    cheap. The witness, when found, is the least such q prime to the
    bad product, and the two facts about the discriminants
    disc_l = disc(f^l - x0) are read off F_1, ..., F_n: whether every
    lower level is untouched (v_q(disc_l) = 0 for l < n) and whether
    v_q(disc_n) is odd.

    The rule, for q prime to the bad product on an instance whose
    structural relations hold (``certify`` checks them before any
    depth): q then divides none of d, s, t or den(b), so the level
    recursion of ``poly.disc_levels`` gives
    v_q(disc_n) = d v_q(disc_(n-1)) + v_q(F_n), that is,
    v_q(disc_n) = sum over k <= n of d^(n-k) v_q(F_k). So the lower
    levels are untouched exactly when q divides no F_k with k < n, and
    the sum is positive because q divides F_n. A zero F_k with k < n
    makes every later level's discriminant 0: not clean, not odd.
    """
    factors, cofactor = factorization
    factors = dict(factors)
    n = len(lower) + 1
    bad = inst.bad_product
    evidence = "deterministic"
    note = ""
    if cofactor > 1:
        bits = bit_length(cofactor)
        small = bits <= COFACTOR_PRIMALITY_BIT_LIMIT
        if small:
            cofactor = int(cofactor)
        if small and not is_square(cofactor):
            if is_prime(cofactor):
                factors[cofactor] = factors.get(cofactor, 0) + 1
                evidence = primality_evidence(cofactor)
                note = f"cofactor of {bits} bits classified prime"
            else:
                note = "composite cofactor left unfactored"
        else:
            note = f"cofactor of {bits} bits left unclassified"
    candidates = sorted(
        q for q, e in factors.items() if e % 2 == 1 and bad % q != 0
    )
    if not candidates:
        return ExhibitReport(found=False, evidence=evidence, note=note or "no witness within effort bound")
    q = candidates[0]
    clean = all(residue(f_k, q) for f_k in lower)
    if 0 in lower:
        disc_odd = False
    else:
        # v_q(disc_n) = sum over k <= n of d^(n-k) v_q(F_k)
        v_disc = factors[q] + sum(
            inst.d ** (n - k) * multiplicity(f_k, q)
            for k, f_k in enumerate(lower, 1)
            if residue(f_k, q) == 0
        )
        disc_odd = v_disc % 2 == 1
    return ExhibitReport(
        found=True,
        q=q,
        valuation_in_fn=factors[q],
        lower_levels_clean=clean,
        disc_valuation_odd=disc_odd,
        evidence=evidence,
        note=note,
    )


def _eisenstein_levels(inst: IterInstance, depth: int) -> dict[int, bool]:
    """Eisenstein test of f^n - x0 at p1 for n <= min(depth, 3).

    Reads H_n of ``polymod.iterates_minus_x0`` mod p1^2, where
    f^n - x0 = H_n / lc(H_n) and lc(H_n) is a p1-unit: f^n - x0 is
    Eisenstein at p1 exactly when the non-leading coefficients of H_n
    reduce to 0 mod p1 and its constant term does not reduce to 0 mod
    p1^2. A non-p1-integral b or x0 raises ValueError.
    """
    p1 = inst.p1
    for q in (inst.b, inst.x0):
        if q.denominator % p1 == 0:
            raise ValueError(f"eisenstein check: {q} is not {p1}-integral")
    out: dict[int, bool] = {}
    levels = iterates_minus_x0(inst, p1 * p1)
    for n, h in zip(range(1, min(depth, EISENSTEIN_MAX_LEVEL) + 1), levels):
        out[n] = h[0] % p1 == 0 and h[0] != 0 and all(c % p1 == 0 for c in h[1:-1])
    return out


def certify(
    inst: IterInstance,
    depth: int = DEFAULT_DEPTH,
    exhibit_effort: int = EXHIBIT_PRIME_BOUND,
) -> Certificate:
    """Run every check to the requested depth and assemble the verdict.

    Check order is pinned: condition (1), condition (2), structural
    instance invariants, then per-depth records; the verdict names the
    first failed relation. The witness search steps the primes up to
    ``exhibit_effort``, none at 1, once for all depths before the first
    depth's checks, and each depth factors its F_n over its own list of
    the primes found; its outcome never changes the verdict. A depth
    past ``deepest_depth_in_cap`` raises CapExceededError before
    anything is built: the cap on the bits of F_n guards memory, not
    correctness.
    """
    if depth < 1:
        raise ValueError("certify: depth must be >= 1")
    deepest = deepest_depth_in_cap(inst)
    if depth > deepest:
        raise CapExceededError(
            f"certify: depth {depth} is past depth {deepest}, the deepest whose F_n "
            f"is bounded within the {FN_BIT_CAP}-bit cap"
        )
    checks: list[CheckResult] = []
    hypothesis_set = HYPOTHESES_LOW_DEGREE if inst.d <= 3 else HYPOTHESES_FULL

    # valuations below are only meaningful at actual primes, so this
    # gate runs before conditions (1) and (2) can be evaluated at all
    primes_ok = all(is_prime(q) for q in (inst.p, inst.p1, inst.p2))
    if not primes_ok:
        gate = CheckResult(
            "instance.witness_primes_prime",
            False,
            f"p={inst.p}, p1={inst.p1}, p2={inst.p2}",
        )
        return Certificate(
            instance=inst,
            depth=depth,
            hypothesis_set=hypothesis_set,
            condition1=ConditionOneReport(ok=False, v_p1_b=None, v_p1_x0=None, checks=[]),
            condition2=ConditionTwoReport(skipped=True, ok=False, checks=[]),
            structural=["p, p1, p2 prime"],
            records=[],
            verdict_pass=False,
            first_failure=gate.name,
            evidence_level="deterministic",
            checks=[gate],
        )

    cond1 = check_condition1(inst)
    checks.extend(cond1.checks)
    cond2 = check_condition2(inst, depth)
    checks.extend(cond2.checks)

    structural = inst.violated_relations()
    checks.append(
        CheckResult(
            "instance.structural_invariants",
            not structural,
            "; ".join(structural) if structural else "all hold",
        )
    )

    records: list[CertDepthRecord] = []
    fns: list[Number] = []  # F_1, ..., F_(n-1) at depth n
    evidence_level = "deterministic"
    if all(c.ok for c in checks):
        eisenstein = _eisenstein_levels(inst, depth)
        divisors = orbit_prime_divisors(inst, exhibit_effort, depth)
        try:
            for value in fn_sequence(inst, depth):
                n, bits = value.n, value.bits
                coprime_ok = fn_coprimality_ok(inst, value.F_n)
                congruence_ok = congruence_holds(inst, value)
                f_mod_p = residue(value.F_n, inst.p)
                ns_f, ns_neg_f = nonsquare_pair(inst, f_mod_p)
                e_ok = value.e_n == expected_e_n(inst, n)
                exhibit_report = witness_report(
                    inst, factor_over(value.F_n, divisors[n - 1], exhibit_effort), fns
                )
                fns.append(value.F_n)
                if exhibit_report.evidence != "deterministic":
                    evidence_level = "probabilistic-primality"
                record = CertDepthRecord(
                    n=n,
                    e_n=value.e_n,
                    M_n=value.M_n,
                    F_n=value.F_n,
                    F_n_bits=bits,
                    F_n_mod_p=f_mod_p,
                    nonsquare_f=ns_f,
                    nonsquare_neg_f=ns_neg_f,
                    coprimality_ok=coprime_ok,
                    congruence_ok=congruence_ok,
                    exhibited_q=exhibit_report,
                    eisenstein_ok=eisenstein.get(n),
                )
                records.append(record)
                depth_checks = [
                    CheckResult(f"depth{n}.dual_path_Fn", True, f"{bits} bits"),
                    CheckResult(f"depth{n}.e_n_closed_form", e_ok, f"e_{n}={value.e_n}"),
                    CheckResult(f"depth{n}.Fn_coprime_to_bad_primes", coprime_ok),
                    CheckResult(f"depth{n}.step3_congruence", congruence_ok),
                    CheckResult(
                        f"depth{n}.Fn_nonsquare_mod_p",
                        ns_f and ns_neg_f,
                        f"F_{n} mod {inst.p} = {f_mod_p}",
                    ),
                ]
                if n in eisenstein:
                    depth_checks.append(
                        CheckResult(f"depth{n}.eisenstein_at_p1", eisenstein[n])
                    )
                checks.extend(depth_checks)
        except CertifyError as exc:
            checks.append(CheckResult(str(exc).split(":")[0], False, str(exc)))

    first_failure = next((c.name for c in checks if not c.ok), None)
    return Certificate(
        instance=inst,
        depth=depth,
        hypothesis_set=hypothesis_set,
        condition1=cond1,
        condition2=cond2,
        structural=structural,
        records=records,
        verdict_pass=first_failure is None,
        first_failure=first_failure,
        evidence_level=evidence_level,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

BIG_VALUE_DIGEST_BITS = 4096


def _big_int_json(value: Decimal, full: bool) -> object:
    """Decimal string, or digest + bit length above the 4096-bit cutoff.

    ``str`` of an integral Decimal is its decimal digits, in linear
    time; zero is written "0" whatever its sign.
    """
    text = str(value) if value else "0"
    bits = bit_length(value)
    if full or bits <= BIG_VALUE_DIGEST_BITS:
        return text
    import hashlib

    digest = hashlib.sha256(text.encode()).hexdigest()
    return {"bits": bits, "sha256_of_decimal": digest, "sign": -1 if value < 0 else 1}


def certificate_to_json_dict(cert: Certificate, full_values: bool = False) -> dict:
    from .construct import instance_to_json_dict

    def _val_json(v):
        if v is None:  # not taken: a witness prime is not prime
            return None
        return "infinity" if v is INFINITY else int(v)

    cond2: dict[str, object] = {"skipped": cert.condition2.skipped, "ok": cert.condition2.ok}
    if not cert.condition2.skipped:
        cond2["checks"] = [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in cert.condition2.checks
        ]
        if cert.condition2.tower is not None:
            cond2["tower"] = {
                "levels": [
                    {
                        "level": lvl.level,
                        "valuation": f"{lvl.valuation.numerator}/{lvl.valuation.denominator}",
                        "ram_index": str(lvl.ram_index),
                        "scaled": str(lvl.scaled),
                    }
                    for lvl in cert.condition2.tower
                ]
            }
    records = []
    for r in cert.records:
        ex = r.exhibited_q
        records.append({
            "n": r.n,
            "e_n": str(r.e_n),
            "M_n": _big_int_json(r.M_n, full_values),
            "F_n": _big_int_json(r.F_n, full_values),
            "F_n_bits": r.F_n_bits,
            "F_n_mod_p": str(r.F_n_mod_p),
            "nonsquare_F": r.nonsquare_f,
            "nonsquare_neg_F": r.nonsquare_neg_f,
            "coprimality_ok": r.coprimality_ok,
            "congruence_ok": r.congruence_ok,
            "dual_path_ok": True,  # fn_sequence raises otherwise
            "eisenstein_ok": r.eisenstein_ok,
            "exhibited_q": {
                "found": ex.found,
                "q": None if ex.q is None else str(ex.q),
                "valuation_in_Fn": ex.valuation_in_fn,
                "lower_levels_clean": ex.lower_levels_clean,
                "disc_valuation_odd": ex.disc_valuation_odd,
                "evidence": ex.evidence,
                "note": ex.note,
            },
        })
    return {
        "schema": "odoni-certificate-v1",
        "instance": instance_to_json_dict(cert.instance),
        "depth": cert.depth,
        "hypothesis_set": cert.hypothesis_set,
        "evidence_level": cert.evidence_level,
        "condition1": {
            "ok": cert.condition1.ok,
            "v_p1_b": _val_json(cert.condition1.v_p1_b),
            "v_p1_x0": _val_json(cert.condition1.v_p1_x0),
        },
        "condition2": cond2,
        "structural_violations": cert.structural,
        "records": records,
        "verdict": {
            "pass": cert.verdict_pass,
            "first_failure": cert.first_failure,
            "claimed_depths": [r.n for r in cert.records] if cert.verdict_pass else [],
            "note": (
                "The certificate claims the checked depths only; the all-depths "
                "conclusion follows from the per-depth congruence pattern, "
                "re-verified above at every certified depth."
            ),
        },
    }

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
    product decided by one pass through the depths and one gcd, into one
    list of primes that every depth factors its F_n over
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
    a failed check named ``check`` and never lets it out."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


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

    q: Optional[int] = None
    valuation_in_fn: Optional[int] = None
    lower_levels_clean: Optional[bool] = None
    disc_valuation_odd: Optional[bool] = None
    evidence: str = "deterministic"
    note: str = ""

    @property
    def found(self) -> bool:
        return self.q is not None


@dataclass
class CertDepthRecord:
    fn: FnValue  # depth n, e_n, M_n and F_n
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
    condition1: ConditionOneReport
    condition2: ConditionTwoReport
    structural: list[str]  # violated structural relations (empty = ok)
    records: list[CertDepthRecord]
    checks: list[CheckResult]  # in check order; the verdict reads its first failure

    @property
    def first_failure(self) -> Optional[str]:
        return next((c.name for c in self.checks if not c.ok), None)

    @property
    def verdict_pass(self) -> bool:
        return self.first_failure is None

    @property
    def evidence_level(self) -> str:
        """Probabilistic when any depth's witness rests on a probable prime."""
        if any(r.exhibited_q.evidence != "deterministic" for r in self.records):
            return "probabilistic-primality"
        return "deterministic"

    @property
    def hypothesis_set(self) -> str:
        return HYPOTHESES_LOW_DEGREE if self.instance.d <= 3 else HYPOTHESES_FULL


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

    Every factor with an exponent that grows with n is stepped from
    depth n to depth n + 1, never rebuilt: with m = d - 1 in the even
    case and m = d - 2 in the odd cases (``certify`` runs the sequence
    only once the structural relations hold),

      coeff_n = (d-1)^((d-1)^n) s^(d(e_n - 1)), coeff_(n+1) = (coeff_n s^d)^m   (even),
      coeff_n = 4^((d-2)^(n-1)) (d-2)^((d-2)^n) s^(2 e_n - 2),
                coeff_(n+1) = coeff_n^m s^(2(d-1))                              (odd),
      tail_n = d^(d^n) (tc)^(d^n - 1) (even) or d^(d^n) t^(2 d^n - 2) (odd),
                tail_(n+1) = tail_n^d (tc)^(d-1) or tail_n^d t^(2(d-1)), tail_0 = d,

    so F_n = coeff_n s^(d-1) M_n - tail_n c and
    M_(n+1) = M_n^m (coeff_n M_n - tail_n) in the even case, and
    F_n = coeff_n M_n^2 - tail_n in the odd cases. Each power inside
    the depth loop has exponent d or m; the powers of s, t and tc that
    step the factors are formed once, before it.

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
            "depth1.dual_path_Fn",
            f"t*c = {t * c} is not den(b) = {inst.b.denominator} (up to sign for "
            "even d), so the recursion cannot match direct evaluation",
        )
    dec_s, dec_c, dec_u, dec_v = (Decimal(k) for k in (s, c, u, v))
    rhs_scale = Decimal(s ** (d - m) * v)
    with decimal.localcontext(EXACT):
        if even:
            coeff_step, tail_step = dec_s**d, Decimal(t * c) ** m
            coeff, f_scale = Decimal(d - 1) ** m * dec_s ** (d * m), dec_s ** (d - 1)
        else:
            coeff_step = dec_s ** (2 * d - 2)
            tail_step = Decimal(t) ** (2 * d - 2)
            coeff = 4 * Decimal(d - 2) ** m * coeff_step
    m_n, e_n, tail = Decimal(-1 if even else 1), d, Decimal(d)
    for n, (w, scale) in zip(range(1, depth + 1), critical_orbit(inst, Decimal)):
        with decimal.localcontext(EXACT):
            if n > 1:
                # M_n and coeff_n from depth n - 1's values
                if even:
                    m_n = m_n**m * (coeff * m_n - tail)
                    coeff = (coeff * coeff_step) ** m
                else:
                    m_n = m_n**m * f_rec
                    coeff = coeff**m * coeff_step
                e_n = m * e_n + (d - m)
            if even:
                tail = tail**d * tail_step
                f_rec = coeff * f_scale * m_n - tail * dec_c
            else:
                # the square term before tail_n, and as (coeff M_n) M_n:
                # other orders left certify-deep's peak RSS about 0.1 MB higher
                f_rec = coeff * m_n * m_n - (tail := tail**d * tail_step)
            # f_def = F_rec, cross-multiplied with w_n = w / scale and
            # (dtc)^(d^n) = scale cancelled
            agree = w * dec_v - dec_u * scale == f_rec * rhs_scale
        if not agree:
            raise CertifyError(f"depth{n}.dual_path_Fn", "recursion and direct evaluation disagree")
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
            tower = newton.tower_from_valuations(m, v_b, v_x0, depth)
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


def orbit_prime_divisors(inst: IterInstance, bound: int, depth: int) -> list[int]:
    """The primes q <= bound that divide G_n = W_n v - u S_n for some
    n <= depth, ascending, where w_n = W_n / S_n is the critical orbit
    (``poly.critical_orbit``) and x0^(d-m) = u/v.

    ``fn_sequence`` checks the integer identity F_n s^(d-m) v = G_n at
    every depth, so every prime <= bound of every F_n with n <= depth is
    in this one list, as is every prime <= bound of s*v that divides
    some G_n. The list is not split by depth: each depth's
    ``factor_over`` tests every prime it is given on F_n itself, so a
    prime of another depth's F_n only costs it one residue.

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
    some G_n with n <= depth, which are the ones kept.
    So the search costs one gcd per group for the whole run, whatever
    the depth or the size of F_n, keeps no residue of a group past its
    pass, and takes its groups from the stream of ``search_primes``, so
    it holds one sieve window whatever the bound. A bound below 2 builds
    no sieve and finds nothing; ``certify`` refuses one above
    EXHIBIT_EFFORT_CAP before it judges the instance.
    """
    if bound < 0:
        raise ValueError(f"orbit_prime_divisors: bound {bound} is negative")
    found: list[int] = []
    if bound < 2:
        return found
    d, m, b = inst.d, inst.m, Fraction(inst.b)
    x0_shift = Fraction(inst.x0) ** (d - m)
    u, v = x0_shift.numerator, x0_shift.denominator
    big_l = d * b.denominator
    scale, target, w_0 = d * b.numerator, u * big_l, m * b.numerator

    primes = search_primes(inst, bound)
    # a list, not a tuple: tuple() of an iterator builds its result by
    # resizing, so no freed 16-tuple is reused, and each parks on the
    # interpreter's tuple free list (up to 2000, about 0.35 MB resident)
    while group := list(itertools.islice(primes, 16)):
        q = math.prod(group)
        w, y, lift = w_0 % q, 1, pow(big_l, d - 1, q)  # lift = L^(d-1) mod q
        product = 1
        for _ in range(depth):
            w = pow(w, m, q) * (w - scale * y) ** (d - m) % q
            y = pow(y, d, q) * lift % q
            product = product * (w * v - target * y) % q
        g = math.gcd(product, q)
        if g > 1:
            found.extend(p for p in group if g % p == 0)
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
        return ExhibitReport(evidence=evidence, note=note or "no witness within effort bound")
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
    """Run every check to the requested depth; the verdict is read off them.

    Check order is pinned: condition (1), condition (2), structural
    instance invariants, then per-depth checks; the verdict names the
    first failed relation. Valuations mean something only at primes, so
    the witness primes are tested first, and when one is not prime that
    failure is the certificate's only check. The witness search steps
    the primes up to ``exhibit_effort``, none at 1, once for all depths
    before the first depth's checks, into one list; each depth factors
    its F_n over that list and reads its lower levels off the earlier
    records. Its outcome never changes the verdict. A depth past
    ``deepest_depth_in_cap``, then an ``exhibit_effort`` above
    ``EXHIBIT_EFFORT_CAP``, raises CapExceededError before any relation
    is judged or anything is built: the cap on the bits of F_n guards
    memory, the effort cap time, and neither correctness.
    """
    if depth < 1:
        raise ValueError("certify: depth must be >= 1")
    deepest = deepest_depth_in_cap(inst)
    if depth > deepest:
        raise CapExceededError(
            f"certify: depth {depth} is past depth {deepest}, the deepest whose F_n "
            f"is bounded within the {FN_BIT_CAP}-bit cap"
        )
    if exhibit_effort > EXHIBIT_EFFORT_CAP:
        raise CapExceededError(
            f"witness search bound {exhibit_effort} is over the cap {EXHIBIT_EFFORT_CAP}"
        )
    if all(is_prime(q) for q in (inst.p, inst.p1, inst.p2)):
        cond1, cond2 = check_condition1(inst), check_condition2(inst, depth)
        structural = inst.violated_relations()
        checks = [
            *cond1.checks,
            *cond2.checks,
            CheckResult(
                "instance.structural_invariants",
                not structural,
                "; ".join(structural) if structural else "all hold",
            ),
        ]
    else:
        cond1 = ConditionOneReport(ok=False, v_p1_b=None, v_p1_x0=None, checks=[])
        cond2 = ConditionTwoReport(skipped=True, ok=False, checks=[])
        structural = ["p, p1, p2 prime"]
        checks = [
            CheckResult(
                "instance.witness_primes_prime", False, f"p={inst.p}, p1={inst.p1}, p2={inst.p2}"
            )
        ]

    records: list[CertDepthRecord] = []
    if all(c.ok for c in checks):
        eisenstein = _eisenstein_levels(inst, depth)
        divisors = orbit_prime_divisors(inst, exhibit_effort, depth)
        try:
            for value in fn_sequence(inst, depth):
                n, f_n = value.n, value.F_n
                f_mod_p = residue(f_n, inst.p)
                ns_f, ns_neg_f = nonsquare_pair(inst, f_mod_p)
                record = CertDepthRecord(
                    fn=value,
                    F_n_mod_p=f_mod_p,
                    nonsquare_f=ns_f,
                    nonsquare_neg_f=ns_neg_f,
                    coprimality_ok=fn_coprimality_ok(inst, f_n),
                    congruence_ok=congruence_holds(inst, value),
                    exhibited_q=witness_report(
                        inst,
                        factor_over(f_n, divisors, exhibit_effort),
                        [r.fn.F_n for r in records],
                    ),
                    eisenstein_ok=eisenstein.get(n),
                )
                records.append(record)
                checks += [
                    CheckResult(f"depth{n}.dual_path_Fn", True, f"{value.bits} bits"),
                    CheckResult(
                        f"depth{n}.e_n_closed_form",
                        value.e_n == expected_e_n(inst, n),
                        f"e_{n}={value.e_n}",
                    ),
                    CheckResult(f"depth{n}.Fn_coprime_to_bad_primes", record.coprimality_ok),
                    CheckResult(f"depth{n}.step3_congruence", record.congruence_ok),
                    CheckResult(
                        f"depth{n}.Fn_nonsquare_mod_p",
                        ns_f and ns_neg_f,
                        f"F_{n} mod {inst.p} = {f_mod_p}",
                    ),
                ]
                if n in eisenstein:
                    checks.append(CheckResult(f"depth{n}.eisenstein_at_p1", eisenstein[n]))
        except CertifyError as exc:
            checks.append(CheckResult(exc.check, False, str(exc)))
    return Certificate(inst, depth, cond1, cond2, structural, records, checks)


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
            "n": r.fn.n,
            "e_n": str(r.fn.e_n),
            "M_n": _big_int_json(r.fn.M_n, full_values),
            "F_n": _big_int_json(r.fn.F_n, full_values),
            "F_n_bits": r.fn.bits,
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
            "claimed_depths": [r.fn.n for r in cert.records] if cert.verdict_pass else [],
            "note": (
                "The certificate claims the checked depths only; the all-depths "
                "conclusion follows from the per-depth congruence pattern, "
                "re-verified above at every certified depth."
            ),
        },
    }

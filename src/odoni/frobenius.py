"""Statistical oracle: Frobenius cycle types versus the exact tree law.

For a prime p of good reduction, f^n - x0 is squarefree mod p and its
factor degrees are the cycle type of Frobenius acting on the d^n
level-n preimages; distinct-degree factorization reads them off
without splitting any factor. f^n - x0 is composed once over Z, as
H_n / lc(H_n) with ``polymod.iterates_minus_x0``, and each prime then
works on H_n mod p. If
the arboreal group really is the full wreath tower, those cycle types
must equidistribute (by Chebotarev) according to the exact leaf-type
law of the tree group, its cycle index.

Everything here is labeled statistical evidence: a large total-variation
distance is suspicious, a single cycle type outside the tree group's
reachable set is a hard contradiction, and none of it feeds certificate
verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import CapExceededError, primes_between
from .construct import ConstructError, _frac_str
from .permgroup import MAX_ENUMERATION, leaf_type_distribution, wreath_order_exceeds
from .poly import disc_levels
from .polymod import cycle_type_mod_p, iterates_minus_x0

DEFAULT_SCAN_START = 1000
DEFAULT_SCAN_CAP = 10**7
# pi(DEFAULT_SCAN_CAP): no start bound leaves more primes to sample
PRIMES_BELOW_SCAN_CAP = 664579
TV_TOLERANCE = Fraction(1, 20)
TV_ENFORCED_SHAPES = ((2, 2), (3, 1))
MIN_ENFORCED_PRIMES = 2000


class UnrealizableTypeError(RuntimeError):
    """An observed cycle type with no preimage in the tree group; this
    contradicts the wreath-tower embedding and is never a sampling fluke."""


def _bad_reduction_product(inst, n: int) -> int:
    """2*den(b)*den(x0) times num*den of each reduced disc(f^k - x0),
    k <= n: a prime is of good reduction exactly when it does not divide
    this product (a zero discriminant makes every prime bad)."""
    out = 2 * inst.b.denominator * inst.x0.denominator
    for num, den in itertools.islice(disc_levels(inst), n):
        disc = Fraction(num, den)
        out *= disc.numerator * disc.denominator
    return out


@dataclass
class SampleResult:
    d: int
    n: int
    requested: int
    used: int
    skipped: int
    start: int
    counts: dict[tuple[int, ...], int]

    def frequencies(self) -> dict[tuple[int, ...], Fraction]:
        return {t: Fraction(c, self.used) for t, c in sorted(self.counts.items())}


def sample_distribution(
    inst,
    n: int,
    prime_count: int,
    start: int = DEFAULT_SCAN_START,
) -> SampleResult:
    """Empirical leaf cycle-type distribution over the first prime_count
    good primes above the start bound and at most ``DEFAULT_SCAN_CAP``.

    Requires the tree group to be enumerable (order at most
    ``MAX_ENUMERATION``, the reach of the law's test oracle), which is
    decided first and without building the order, and then that the
    instance's structural relations hold: samples of an instance outside
    the constructed family say nothing. Every observed type is
    membership-checked against the reachable set; an unrealizable type
    is a hard error. A prime_count above ``PRIMES_BELOW_SCAN_CAP`` is
    refused before any law, discriminant or prime is computed; one that
    the window above start cannot fill is refused when the scan ends.
    """
    d = inst.d
    if n < 1:
        raise ValueError(f"sample_distribution: level must be >= 1, got {n}")
    # a degree below 2 has no tree group; the relations below name it
    if d >= 2 and wreath_order_exceeds(d, n, MAX_ENUMERATION):
        raise ValueError(
            f"sample_distribution: the depth-{n} tree group of degree {d} has "
            f"order above the enumerable cap {MAX_ENUMERATION}"
        )
    violated = inst.violated_relations()
    if violated:
        raise ConstructError("instance.structural_invariants: " + "; ".join(violated))
    if prime_count > PRIMES_BELOW_SCAN_CAP:
        raise CapExceededError(
            f"{prime_count} primes requested, but only {PRIMES_BELOW_SCAN_CAP} "
            f"primes are below scan cap {DEFAULT_SCAN_CAP}"
        )
    realizable = set(leaf_type_distribution(d, n))
    bad = _bad_reduction_product(inst, n)
    # a good prime divides neither den(b) nor den(x0), so the leading
    # coefficient of H_n stays a unit mod p
    target = next(itertools.islice(iterates_minus_x0(inst), n - 1, None))
    counts: dict[tuple[int, ...], int] = {}
    used = skipped = 0
    block_lo = max(start + 1, 3)
    block = 1 << 16
    while used < prime_count:
        if block_lo > DEFAULT_SCAN_CAP:
            raise CapExceededError(
                f"only {used} good primes below scan cap {DEFAULT_SCAN_CAP}"
            )
        block_hi = min(block_lo + block - 1, DEFAULT_SCAN_CAP)
        for p in primes_between(block_lo, block_hi):
            if used >= prime_count:
                break
            if bad % p == 0:
                skipped += 1
                continue
            ctype = cycle_type_mod_p(target, p)
            if ctype not in realizable:
                raise UnrealizableTypeError(
                    f"cycle type {list(ctype)} at p={p} is not realizable in the "
                    f"depth-{n} tree group of degree {d}"
                )
            counts[ctype] = counts.get(ctype, 0) + 1
            used += 1
        block_lo = block_hi + 1
    return SampleResult(
        d=d,
        n=n,
        requested=prime_count,
        used=used,
        skipped=skipped,
        start=start,
        counts=counts,
    )


def chebotarev_distance(
    frequencies: dict[tuple[int, ...], Fraction], d: int, n: int
) -> Fraction:
    """Total-variation distance to the exact tree-group leaf-type law."""
    exact = leaf_type_distribution(d, n)
    types = set(exact) | set(frequencies)
    return sum(
        abs(frequencies.get(t, Fraction(0)) - exact.get(t, Fraction(0))) for t in types
    ) / 2


def tv_is_enforced(d: int, n: int, used: int) -> bool:
    """The TV <= 1/20 tolerance is only a contract for the two calibrated
    shapes at >= 2000 primes; elsewhere it is reported, not enforced."""
    return (d, n) in TV_ENFORCED_SHAPES and used >= MIN_ENFORCED_PRIMES


@dataclass
class FrobeniusReport:
    sample: SampleResult
    tv: Fraction
    realizable_ok: bool
    enforced: bool
    within_tolerance: Optional[bool]


def run_frobenius(
    inst,
    n: int,
    prime_count: int,
    start: int = DEFAULT_SCAN_START,
) -> FrobeniusReport:
    sample = sample_distribution(inst, n, prime_count, start)
    tv = chebotarev_distance(sample.frequencies(), inst.d, n)
    enforced = tv_is_enforced(inst.d, n, sample.used)
    return FrobeniusReport(
        sample=sample,
        tv=tv,
        realizable_ok=True,  # sample_distribution raises otherwise
        enforced=enforced,
        within_tolerance=(tv <= TV_TOLERANCE) if enforced else None,
    )


def report_to_json_dict(report: FrobeniusReport) -> dict:
    sample = report.sample
    freqs = sample.frequencies()
    exact = leaf_type_distribution(sample.d, sample.n)

    return {
        "schema": "odoni-frobenius-v2",
        "d": sample.d,
        "level": sample.n,
        "primes_requested": sample.requested,
        "primes_used": sample.used,
        "primes_skipped": sample.skipped,
        "start": sample.start,
        "counts": [
            {"type": list(t), "count": c} for t, c in sorted(sample.counts.items())
        ],
        "frequencies": [
            {"type": list(t), "frequency": _frac_str(f)} for t, f in freqs.items()
        ],
        "exact": [{"type": list(t), "frequency": _frac_str(f)} for t, f in exact.items()],
        "tv_distance": _frac_str(report.tv),
        "realizable_ok": report.realizable_ok,
        "tolerance_enforced": report.enforced,
        "tolerance": _frac_str(TV_TOLERANCE),
        "within_tolerance": report.within_tolerance,
        "note": "statistical evidence only; certificate verdicts never depend on this",
    }

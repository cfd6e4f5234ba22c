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
from typing import Iterator, Optional

from .arith import CapExceededError, primes_between
from .construct import ConstructError, _frac_str
from .permgroup import leaf_type_distribution, wreath_order_exceeds
from .poly import disc_iterate
from .polymod import cycle_type_mod_p, iterates_minus_x0

DEFAULT_SCAN_START = 1000
DEFAULT_SCAN_CAP = 10**7
# pi(DEFAULT_SCAN_CAP): no start bound leaves more primes to sample
PRIMES_BELOW_SCAN_CAP = 664579
# largest tree-group order whose law the sampler compares with, the
# reach of the enumeration oracle in the tests
MAX_ENUMERATION = 10**5
# the pipeline samples no level deeper than this
PIPELINE_MAX_LEVEL = 2
TV_TOLERANCE = Fraction(1, 20)
TV_ENFORCED_SHAPES = ((2, 2), (3, 1))
MIN_ENFORCED_PRIMES = 2000


class UnrealizableTypeError(RuntimeError):
    """An observed cycle type with no preimage in the tree group; this
    contradicts the wreath-tower embedding and is never a sampling fluke."""


def _bad_reduction_product(inst, n: int) -> int:
    """2*den(b)*den(x0) times num*den of the reduced disc(f^n - x0): a
    prime is of good reduction exactly when it does not divide this
    product (a zero discriminant makes every prime bad). Level n alone
    decides: f^n - x0 is f^k - x0 composed with f^(n-k), so at a prime
    away from 2*den(b)*den(x0) a repeated root of a lower level k mod p
    makes a repeated root of level n."""
    disc = disc_iterate(inst, n)
    return 2 * inst.b.denominator * inst.x0.denominator * disc.numerator * disc.denominator


def _scan(start: int) -> Iterator[int]:
    """The primes the sampler scans: odd, above start, at most
    ``DEFAULT_SCAN_CAP``."""
    return primes_between(max(start + 1, 3), DEFAULT_SCAN_CAP)


def _enumerable(d: int, n: int) -> bool:
    # a degree below 2 has no tree group; the structural relations name it
    return d < 2 or not wreath_order_exceeds(d, n, MAX_ENUMERATION)


def admit(d: int, n: int, prime_count: int, start: int) -> None:
    """The sampler's admission rule, decided before any instance is judged
    or any law or discriminant is computed: level n's tree group must
    have order at most ``MAX_ENUMERATION`` (decided without building
    it), then prime_count must be at most ``PRIMES_BELOW_SCAN_CAP``, then
    the window above start must hold that many primes, read off the
    scan. Level 0's tree group is trivial and nothing is sampled there,
    so only the count can fail."""
    if not _enumerable(d, n):
        raise ValueError(
            f"sample_distribution: the depth-{n} tree group of degree {d} has "
            f"order above the enumerable cap {MAX_ENUMERATION}"
        )
    if prime_count > PRIMES_BELOW_SCAN_CAP:
        raise CapExceededError(
            f"{prime_count} primes requested, but only {PRIMES_BELOW_SCAN_CAP} "
            f"primes are below scan cap {DEFAULT_SCAN_CAP}"
        )
    if n == 0:
        return
    in_window = sum(1 for _ in itertools.islice(_scan(start), max(prime_count, 0)))
    if in_window < prime_count:
        raise CapExceededError(
            f"{prime_count} primes requested, but only {in_window} odd primes above "
            f"{start} are below scan cap {DEFAULT_SCAN_CAP}"
        )


def pipeline_level(
    d: int, depth: int, prime_count: int, start: int = DEFAULT_SCAN_START
) -> Optional[int]:
    """The level the pipeline samples: the deepest n <= min(depth,
    ``PIPELINE_MAX_LEVEL``) that ``admit`` takes, or None when none does
    and the section is skipped (``skip_reason``). The prime count is
    admitted either way, and the window above start at a sampled level,
    before the pipeline builds anything."""
    levels = range(min(depth, PIPELINE_MAX_LEVEL), 0, -1)
    level = next((n for n in levels if _enumerable(d, n)), 0)
    admit(d, level, prime_count, start)
    return level or None


def skip_reason(depth: int) -> str:
    """Why the pipeline at this depth has no level to sample."""
    return (
        f"no level n <= {min(depth, PIPELINE_MAX_LEVEL)} has an enumerable reference "
        f"law (group order exceeds {MAX_ENUMERATION})"
    )


@dataclass
class SampleResult:
    """A sample, its distance to the exact law and the tolerance verdict."""

    d: int
    n: int
    used: int  # always the prime count asked for: a shorter scan raises
    skipped: int
    start: int
    counts: dict[tuple[int, ...], int]
    law: dict[tuple[int, ...], Fraction]  # the exact leaf-type law at (d, n)

    def frequencies(self) -> dict[tuple[int, ...], Fraction]:
        return {t: Fraction(c, self.used) for t, c in sorted(self.counts.items())}

    @property
    def tv(self) -> Fraction:
        return chebotarev_distance(self.frequencies(), self.law)

    @property
    def enforced(self) -> bool:
        return tv_is_enforced(self.d, self.n, self.used)

    @property
    def within_tolerance(self) -> Optional[bool]:
        return self.tv <= TV_TOLERANCE if self.enforced else None


def sample_distribution(
    inst,
    n: int,
    prime_count: int,
    start: int = DEFAULT_SCAN_START,
) -> SampleResult:
    """Empirical leaf cycle-type distribution over the first prime_count
    good primes above the start bound and at most ``DEFAULT_SCAN_CAP``.

    The level, the prime count and the window above start pass
    ``admit`` first; then the instance's structural relations must
    hold: samples of an instance outside the constructed family say
    nothing. The exact law is then built once and carried on the
    result, and every observed type is membership-checked against its
    support, the reachable set; an unrealizable type is a hard error. A
    window with enough primes but too few good ones is refused when the
    scan ends.
    """
    d = inst.d
    if n < 1:
        raise ValueError(f"sample_distribution: level must be >= 1, got {n}")
    admit(d, n, prime_count, start)
    violated = inst.violated_relations()
    if violated:
        raise ConstructError("instance.structural_invariants: " + "; ".join(violated))
    law = leaf_type_distribution(d, n)
    bad = _bad_reduction_product(inst, n)
    # a good prime divides neither den(b) nor den(x0), so the leading
    # coefficient of H_n stays a unit mod p
    target = next(itertools.islice(iterates_minus_x0(inst), n - 1, None))
    counts: dict[tuple[int, ...], int] = {}
    used = skipped = 0
    for p in _scan(start):
        if used >= prime_count:
            break
        if bad % p == 0:
            skipped += 1
            continue
        ctype = cycle_type_mod_p(target, p)
        if ctype not in law:
            raise UnrealizableTypeError(
                f"cycle type {list(ctype)} at p={p} is not realizable in the "
                f"depth-{n} tree group of degree {d}"
            )
        counts[ctype] = counts.get(ctype, 0) + 1
        used += 1
    if used < prime_count:
        raise CapExceededError(f"only {used} good primes below scan cap {DEFAULT_SCAN_CAP}")
    return SampleResult(d=d, n=n, used=used, skipped=skipped, start=start, counts=counts, law=law)


def chebotarev_distance(
    frequencies: dict[tuple[int, ...], Fraction], law: dict[tuple[int, ...], Fraction]
) -> Fraction:
    """Total-variation distance to the exact tree-group leaf-type law."""
    types = set(law) | set(frequencies)
    return sum(
        abs(frequencies.get(t, Fraction(0)) - law.get(t, Fraction(0))) for t in types
    ) / 2


def tv_is_enforced(d: int, n: int, used: int) -> bool:
    """The TV <= 1/20 tolerance is only a contract for the two calibrated
    shapes at >= 2000 primes; elsewhere it is reported, not enforced."""
    return (d, n) in TV_ENFORCED_SHAPES and used >= MIN_ENFORCED_PRIMES


def report_to_json_dict(sample: SampleResult) -> dict:
    freqs = sample.frequencies()
    return {
        "schema": "odoni-frobenius-v2",
        "d": sample.d,
        "level": sample.n,
        "primes_requested": sample.used,
        "primes_used": sample.used,
        "primes_skipped": sample.skipped,
        "start": sample.start,
        "counts": [
            {"type": list(t), "count": c} for t, c in sorted(sample.counts.items())
        ],
        "frequencies": [
            {"type": list(t), "frequency": _frac_str(f)} for t, f in freqs.items()
        ],
        "exact": [{"type": list(t), "frequency": _frac_str(f)} for t, f in sample.law.items()],
        "tv_distance": _frac_str(sample.tv),
        "realizable_ok": True,  # sample_distribution raises otherwise
        "tolerance_enforced": sample.enforced,
        "tolerance": _frac_str(TV_TOLERANCE),
        "within_tolerance": sample.within_tolerance,
        "note": "statistical evidence only; certificate verdicts never depend on this",
    }

"""Exact integer and rational arithmetic.

p-adic valuations, quadratic-residue tests, the Chinese Remainder
Theorem, primality testing, deterministic prime search, exact square
tests, and a cached prime sieve. Everything is pure, exact, and
reentrant: no floats, and no global state but caches that never change
a result.

Rationals are ``fractions.Fraction`` throughout (re-exported as
``Rational``); the valuation of 0 is the ``INFINITY`` sentinel, a
dedicated object with ordering but no arithmetic, so that accidentally
computing with it fails loudly instead of silently overflowing.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import random
from array import array
from fractions import Fraction
from typing import Callable, Union

Rational = Fraction

# Miller-Rabin with the first 13 prime bases is a proven deterministic
# primality test below this bound (Sorenson-Webster), which comfortably
# covers 64-bit inputs.
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_RANDOM_MR_ROUNDS = 64

DEFAULT_SEARCH_CAP = 10**6

# decimal_str: at most 617 digits, below every allowed int-to-str guard
_DIRECT_STR_BITS = 2048
_DECIMAL_LEAF_BITS = 128


class CapExceededError(RuntimeError):
    """A bounded search (prime scan, witness search) ran past its cap."""


class _Infinity:
    """Valuation of zero.

    Compares above every integer and rational; deliberately supports no
    arithmetic, so ``INFINITY + 1`` raises instead of propagating a
    bogus value into a certificate.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("odoni.arith.INFINITY")

    def __gt__(self, other):
        if isinstance(other, (int, Fraction)):
            return True
        if other is self:
            return False
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, Fraction)) or other is self:
            return True
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, (int, Fraction)) or other is self:
            return False
        return NotImplemented

    def __le__(self, other):
        if other is self:
            return True
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented


INFINITY = _Infinity()

Valuation = Union[int, _Infinity]


def is_prime(n: int) -> bool:
    """Primality test, deterministic below MR_DETERMINISTIC_BOUND.

    Small inputs fall to trial division; mid-range inputs use the fixed
    13-base Miller-Rabin set (proven deterministic there); larger inputs
    get 64 Miller-Rabin rounds with bases drawn from a PRNG seeded by n,
    so the answer is reproducible but only probabilistic; see
    primality_evidence().
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 53 * 53:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < MR_DETERMINISTIC_BOUND:
        bases = _MR_BASES
    else:
        rng = random.Random(n ^ 0x6F646F6E69)  # reproducible per input
        bases = tuple(rng.randrange(2, n - 1) for _ in range(_RANDOM_MR_ROUNDS))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primality_evidence(n: int) -> str:
    """Evidence level of is_prime(n): "deterministic" or "probabilistic"."""
    return "deterministic" if n < MR_DETERMINISTIC_BOUND else "probabilistic"


def val(q: Union[int, Fraction], p: int) -> Valuation:
    """Exact p-adic valuation of a rational; val(0) is INFINITY.

    Rejects non-prime p: a valuation at a composite modulus is almost
    always a caller bug.
    """
    if not is_prime(p):
        raise ValueError(f"val: modulus {p} is not prime")
    q = Fraction(q)
    if q == 0:
        return INFINITY
    return multiplicity(q.numerator, p) - multiplicity(q.denominator, p)


def multiplicity(n: int, p: int) -> int:
    """The largest e with p^e | n, for n != 0 and |p| >= 2; p need not
    be prime, and it is not checked.

    Divides by p, p^2, p^4, ... while they divide, then by the same
    powers in descending order while they divide, so the number of
    divisions grows with log(e), not with e.
    """
    powers = []
    power = p
    while n % power == 0:
        n //= power
        powers.append(power)
        power *= power
    # e = 2^len(powers) - 1 so far, and p^(2^len(powers)) does not divide n
    e = (1 << len(powers)) - 1
    for k in reversed(range(len(powers))):
        if n % powers[k] == 0:
            n //= powers[k]
            e += 1 << k
    return e


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, via Euler's criterion.

    Returns 0 iff p | a, 1 for nonzero squares mod p, -1 otherwise.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre: {p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def crt(pairs: list[tuple[int, int]]) -> int:
    """Smallest non-negative solution of simultaneous congruences.

    ``pairs`` is a list of (residue, modulus); moduli must be pairwise
    coprime (checked, rejected otherwise).
    """
    if not pairs:
        raise ValueError("crt: no congruences given")
    x, modulus = 0, 1
    for r, m in pairs:
        if m < 1:
            raise ValueError(f"crt: modulus {m} < 1")
        if math.gcd(modulus, m) != 1:
            raise ValueError(f"crt: moduli not pairwise coprime at {m}")
        if m == 1:
            continue
        inv = pow(modulus, -1, m)
        x = x + modulus * ((r - x) * inv % m)
        modulus *= m
    return x % modulus


def next_prime_where(
    start: int,
    predicate: Callable[[int], bool],
    cap: int = DEFAULT_SEARCH_CAP,
) -> int:
    """Smallest prime >= start satisfying predicate; loud failure past cap."""
    n = max(2, start)
    while n <= cap:
        if is_prime(n) and predicate(n):
            return n
        n += 1
    raise CapExceededError(f"no prime >= {start} satisfying predicate below cap {cap}")


def is_square(q: Union[int, Fraction]) -> bool:
    """True iff q is the square of a rational (exact integer sqrt test)."""
    q = Fraction(q)
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


@functools.lru_cache(maxsize=4)
def primes_array(bound: int) -> array:
    """All primes <= bound, for bound >= 2, by a plain sieve, cached per
    bound. An ``array`` of machine integers: the 78498 primes below 10^6
    take 628 kB, where a tuple of int objects takes 2.8 MB."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, bound + 1, i)))
    return array("l", itertools.compress(range(bound + 1), sieve))


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound by a plain sieve (cached for repeat bounds)."""
    if bound < 2:
        return []
    return list(primes_array(bound))


def decimal_str(n: int) -> str:
    """Decimal string of an arbitrarily large integer, in subquadratic time.

    Values of at most 2048 bits (617 digits, below the smallest digit
    guard the interpreter allows, 640) go through ``str``. Larger ones
    are converted by divide and conquer over ``decimal`` (C libmpdec,
    whose multiplication is subquadratic): split at half the bit width,
    convert both halves, and combine them as lo + hi * 2^h in a context
    wide enough that every operation is exact, with Inexact trapped so
    that any rounding raises. ``str(int)`` is quadratic in CPython before
    3.12 and guarded by the interpreter-wide digit limit; this route
    needs neither, and gives the same digits.
    """
    if n.bit_length() <= _DIRECT_STR_BITS:
        return str(n)
    powers: dict[int, decimal.Decimal] = {}  # 2^h, shared by the halves

    def convert(v: int, width: int) -> decimal.Decimal:
        # 0 <= v < 2^width
        if width <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(v)
        h = width // 2
        hi = v >> h
        if h not in powers:
            powers[h] = decimal.Decimal(2) ** h
        return convert(v - (hi << h), h) + convert(hi, width - h) * powers[h]

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        value = convert(abs(n), n.bit_length())
        powers.clear()
    text = str(value)
    return "-" + text if n < 0 else text

"""Exact integer and rational arithmetic.

p-adic valuations, quadratic-residue tests, the Chinese Remainder
Theorem, primality testing, deterministic prime search, exact square
tests, and one prime sieve: ``primes_between`` sieves the odd numbers
of a range one fixed-size window at a time, so a caller that streams
its primes holds one window whatever the bound. Everything is pure,
exact, and reentrant: no floats, no randomness, and no global state.

The certifier holds its large integers as integral ``decimal.Decimal``
values (C libmpdec, whose multiplication is a number-theoretic
transform). Every operation on them runs in ``EXACT``, entered by the
function that operates, never read from the caller's context. Such a
value is read only through ``residue`` and ``bit_length``, since
converting a large one to or from ``int`` is quadratic.

Rationals are ``fractions.Fraction`` throughout, and every one from
outside is read by ``_rationals``, which refuses an entry over
``RATIONAL_BIT_CAP`` bits from the literal alone, and reads one within
it whatever the interpreter's int-string digit limit. The valuation of
0 is the ``INFINITY`` sentinel, a singleton with neither ordering nor
arithmetic, so that accidentally comparing or computing with it fails
loudly instead of silently producing a value; a caller tests
``v is INFINITY`` first.
"""

from __future__ import annotations

import decimal
import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterator, Union

# integers of any size stay exact in this context, and any rounding raises
EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    rounding=decimal.ROUND_HALF_EVEN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.DivisionByZero],
)
# bit_length's estimate: log2 to about 39 significant digits, so an
# estimate within _NEAR_INTEGER of an integer k is settled against 2^k
_LOG_CONTEXT = decimal.Context(
    prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, rounding=decimal.ROUND_HALF_EVEN
)
_LOG10_2 = Decimal(2).log10(_LOG_CONTEXT.copy())
_NEAR_INTEGER = Decimal("1e-20")

Number = Union[int, Decimal]

# Miller-Rabin with the first 13 prime bases is a proven deterministic
# primality test below this bound (Sorenson-Webster), which comfortably
# covers 64-bit inputs.
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

DEFAULT_SEARCH_CAP = 10**6

# decimal_str: at most 617 digits, below every allowed int-to-str guard
_DIRECT_STR_BITS = 2048
_DECIMAL_LEAF_BITS = 128


class CapExceededError(RuntimeError):
    """The work asked for is over a resource cap; hitting one proves
    nothing about the instance."""


class _Infinity:
    """Valuation of zero.

    A singleton, equal only to itself; deliberately supports no ordering
    and no arithmetic, so ``INFINITY > 1`` and ``INFINITY + 1`` raise
    TypeError instead of propagating a bogus value into a certificate.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()

Valuation = Union[int, _Infinity]


def is_prime(n: int) -> bool:
    """Primality test, deterministic below MR_DETERMINISTIC_BOUND.

    Small inputs fall to trial division; mid-range inputs use the fixed
    13-base Miller-Rabin set (proven deterministic there). Larger inputs
    get the Baillie-PSW test (R. Baillie and S. Wagstaff, Math. Comp. 35,
    1980): a strong probable-prime test to base 2, then a strong Lucas
    test with Selfridge's parameters. No composite is known to pass
    both, but none is proven not to, so the answer there is
    probabilistic; see primality_evidence().
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
    if n < MR_DETERMINISTIC_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Whether an odd n > a passes the Miller-Rabin round to base a:
    with n - 1 = d 2^r and d odd, a^d = 1 or a^(d 2^i) = -1 mod n for
    some i < r."""
    r = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> r, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Whether an odd n with no prime factor below 53 passes the strong
    Lucas test with Selfridge's parameters: D the first of 5, -7, 9,
    -11, ... with Jacobi symbol (D|n) = -1, P = 1 and Q = (1 - D)/4.
    With n + 1 = d 2^s and d odd, n passes when U_d = 0 or
    V_(d 2^r) = 0 mod n for some r < s.

    A square n has no such D, so it is rejected first. A D with
    (D|n) = 0 shares a factor with n: a proper one, unless |D| = n, and
    then no smaller odd number shared one, so n is prime.

    U_d, V_d and Q^d are built over the bits of d by
    U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k, and, for a one bit,
    U_(k+1) = (U_k + V_k)/2, V_(k+1) = (D U_k + V_k)/2, halving mod n.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0:
            return abs(D) == n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    u, v, q_k = 1, 1, Q % n  # U_1, V_1, Q^1 with P = 1
    for bit in bin(d)[3:]:
        u, v, q_k = u * v % n, (v * v - 2 * q_k) % n, q_k * q_k % n
        if bit == "1":
            u, v = u + v, D * u + v
            u, v = (u + n if u & 1 else u) >> 1, (v + n if v & 1 else v) >> 1
            u, v, q_k = u % n, v % n, q_k * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, q_k = (v * v - 2 * q_k) % n, q_k * q_k % n
        if v == 0:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for an odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def primality_evidence(n: int) -> str:
    """Evidence level of is_prime(n): "deterministic" below
    MR_DETERMINISTIC_BOUND, where the fixed bases prove the answer, and
    "probabilistic" from it on, where Baillie-PSW decides."""
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


def multiplicity(n: Number, p: int) -> int:
    """The largest e with p^e | n, for an int or integral Decimal n != 0
    and |p| >= 2; p need not be prime, and it is not checked.

    Divides by p, p^2, p^4, ... while they divide, then by the same
    powers in descending order while they divide, so the number of
    divisions grows with log(e), not with e. The powers of p take n's
    type, so a Decimal n is never mixed with a large int.
    """
    powers = []
    power = p if isinstance(n, int) else Decimal(p)
    with decimal.localcontext(EXACT):
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


def residue(x: Number, k: int) -> int:
    """x mod k as an int, in Python's floor convention (the result has
    the sign of k), for an int or integral Decimal x and an int k != 0.

    Decimal's % truncates toward zero, so its remainder is moved by k
    when its sign differs from k's; only the remainder, which is
    smaller than k, is converted to int.
    """
    if isinstance(x, int):
        return x % k
    with decimal.localcontext(EXACT):
        r = int(x % k)
    return r + k if r and (r < 0) != (k < 0) else r


def bit_length(x: Number) -> int:
    """The bit length of |x|, exactly, for an int or integral Decimal x.

    A Decimal is measured without converting it: log2|x| from a
    40-digit ``log10``, whose error stays below 10^-20 while x has fewer
    than 10^15 bits, gives floor(log2|x|) + 1 unless it lies within
    10^-20 of an integer k; then |x| is compared with 2^k exactly.
    """
    if isinstance(x, int):
        return x.bit_length()
    if not x:
        return 0
    x = x.copy_abs()
    with decimal.localcontext(_LOG_CONTEXT):
        estimate = x.log10() / _LOG10_2
        k = int(estimate.to_integral_value())
        if abs(estimate - k) > _NEAR_INTEGER:
            return int(estimate.to_integral_value(decimal.ROUND_FLOOR)) + 1
    with decimal.localcontext(EXACT):
        return k + 1 if x >= Decimal(2) ** k else k


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


# the most bits a rational entry's numerator or denominator may have:
# a valuation takes about log2(e) divisions for exponent e
# (``multiplicity``), so ``newton`` on the largest entries, such as
# 1e9860 at p = 2, exits in about 0.2 s including interpreter start-up
RATIONAL_BIT_CAP = 2**15
# a superset of the literals ``Fraction`` accepts: sign, integer part,
# then a denominator or a fractional part and an exponent (compiled by
# ``re`` on first use, so commands that read no rational never pay for it)
_RATIONAL_LITERAL = (
    r"\s*([-+]?)([\d_]*)(?:\s*/\s*([\d_]+)|(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?)\s*"
)


def _entry_bits(entry) -> float:
    """An upper bound on the bit length of the numerator and of the
    denominator of Fraction(entry), read off the literal's digits and
    exponent before any integer is built (a D-digit integer has at most
    ceil(D log2 10) bits). 0 for a float (at most 1075 bits) and for
    anything Fraction rejects."""
    if isinstance(entry, int):
        return entry.bit_length()
    match = re.fullmatch(_RATIONAL_LITERAL, entry) if isinstance(entry, str) else None
    if match is None:
        return 0
    _, whole, den, frac, exp = ((text or "").replace("_", "") for text in match.groups())
    if len(exp.lstrip("+-")) > 12:
        return math.inf
    shift = int(exp or 0) - len(frac)
    digits = max(len(whole) + len(frac) + max(shift, 0), len(den) + max(-shift, 0))
    return math.ceil(digits * math.log2(10))


def _rational(entry) -> Fraction:
    """Fraction(entry), also for a literal with a digit run past the
    interpreter's int-string digit limit: Fraction decides the grammar,
    on the literal with each digit run cut to one digit, and ``decimal``
    in ``EXACT`` reads the digits, leaving the limit as it is. Quadratic
    in the digits, so only for an entry within RATIONAL_BIT_CAP."""
    try:
        return Fraction(entry)
    except ValueError:
        if not isinstance(entry, str):
            raise
        Fraction(re.sub(r"\d+", "1", entry))  # raises unless the grammar holds
    sign, whole, den, frac, exp = (
        (text or "").replace("_", "") for text in re.fullmatch(_RATIONAL_LITERAL, entry).groups()
    )
    value = Fraction(EXACT.create_decimal(f"{sign}{whole}.{frac}e{exp or 0}"))
    return value / int(EXACT.create_decimal(den)) if den else value


def _rationals(entries, what: str) -> list[Fraction]:
    """Each entry (a string such as "-1/49", or a JSON number) as a
    Fraction; anything else, or an entry over RATIONAL_BIT_CAP bits, is
    an input error naming ``what`` and the entry's first 24 characters."""
    out = []
    for entry in entries:
        if _entry_bits(entry) > RATIONAL_BIT_CAP:
            raise ValueError(f"{what}: {_clipped(entry)} exceeds the {RATIONAL_BIT_CAP}-bit cap on a rational")
        try:
            out.append(_rational(entry))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"{what}: {_clipped(entry)} is not a rational number") from exc
    return out


def _clipped(entry) -> str:
    shown = str(entry)
    return repr(shown if len(shown) <= 24 else shown[:24] + "...")


def is_square(q: Union[int, Fraction]) -> bool:
    """True iff q is the square of a rational (exact integer sqrt test)."""
    q = Fraction(q)
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


# flags per window of ``primes_between``: one flag per odd number, so a
# window spans 65536 integers in 32 kB
_SIEVE_WINDOW = 1 << 15


def primes_between(lo: int, hi: int) -> Iterator[int]:
    """The primes p with lo <= p <= hi, ascending, by a sieve of the odd
    numbers in windows of ``_SIEVE_WINDOW`` flags from the first odd
    number >= lo: flag i of a window from w stands for w + 2i, and each
    odd prime up to isqrt(hi) crosses off its odd multiples from the
    larger of p^2 and its first multiple in the window, at a stride of
    p flags. So a range far above 2 costs its width, not its upper end,
    and any range holds one window at a time."""
    lo = max(lo, 2)
    if lo > hi:
        return
    if lo == 2:
        yield 2
    base = list(primes_between(3, math.isqrt(hi)))
    for w in range(lo | 1, hi + 1, 2 * _SIEVE_WINDOW):
        size = min(_SIEVE_WINDOW, (hi - w) // 2 + 1)
        flags = bytearray([1]) * size
        for p in base:
            first = max(p * p, -(-w // p) * p)
            if first % 2 == 0:
                first += p  # odd multiples only
            i = (first - w) // 2
            flags[i::p] = bytes(len(range(i, size, p)))
        yield from itertools.compress(range(w, w + 2 * size, 2), flags)


def decimal_str(n: int) -> str:
    """Decimal string of an arbitrarily large integer, in subquadratic time.

    Values of at most 2048 bits (617 digits, below the smallest digit
    guard the interpreter allows, 640) go through ``str``. Larger ones
    are converted by divide and conquer over ``decimal`` (C libmpdec,
    whose multiplication is subquadratic): split at half the bit width,
    convert both halves, and combine them as lo + hi * 2^h in ``EXACT``,
    where any rounding raises. ``str(int)`` is quadratic in CPython before
    3.12 and guarded by the interpreter-wide digit limit; this route
    needs neither, and gives the same digits.
    """
    if n.bit_length() <= _DIRECT_STR_BITS:
        return str(n)
    powers: dict[int, Decimal] = {}  # 2^h, shared by the halves

    def convert(v: int, width: int) -> Decimal:
        # 0 <= v < 2^width
        if width <= _DECIMAL_LEAF_BITS:
            return Decimal(v)
        h = width // 2
        hi = v >> h
        if h not in powers:
            powers[h] = Decimal(2) ** h
        return convert(v - (hi << h), h) + convert(hi, width - h) * powers[h]

    with decimal.localcontext(EXACT):
        value = convert(abs(n), n.bit_length())
        powers.clear()
    text = str(value)
    return "-" + text if n < 0 else text

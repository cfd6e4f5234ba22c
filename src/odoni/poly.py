"""Discriminants of trinomials and of the iterates f^k - x0 of
f = x^d - b*x^m, and the critical orbit of f.

The trinomial discriminant has a closed form. disc(f^k - x0) follows
the level recursion driven by the critical orbit for m = d-1 and
m = d-2; other small shapes take the resultant over Z (the
fraction-free subresultant remainder sequence) of the integer list
f^k - x0 from ``polymod.iterates_minus_x0`` and its derivative.
Polynomials over Q, composition and the Fraction resultant are the test
suite's oracle, not part of this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .arith import MR_DETERMINISTIC_BOUND, is_prime, val
from .polymod import iterates_minus_x0

DEFAULT_BIT_BUDGET = 2**20
# disc_levels looks for the primes of its denominators up to this bound
_DENOMINATOR_TRIAL_BOUND = 2**16


class BitBudgetExceededError(RuntimeError):
    """An iterated-discriminant computation outgrew its bit budget."""


# ---------------------------------------------------------------------------
# resultants and discriminants
# ---------------------------------------------------------------------------


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of lc(b)^(deg a - deg b + 1) * a modulo b over Z."""
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    e = len(a) - 1 - db + 1
    while len(a) - 1 >= db and a != [0]:
        da = len(a) - 1
        top = a[-1]
        a = [lb * c for c in a]
        for i in range(db + 1):
            a[da - db + i] -= top * b[i]
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        e -= 1
        if a == [0]:
            break
    if e > 0:
        scale = lb**e
        a = [scale * c for c in a]
    return a


def _int_resultant(a: list[int], b: list[int]) -> int:
    """Resultant over Z by the subresultant PRS (fraction-free)."""
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    while len(b) > 1 and b[-1] == 0:
        b.pop()
    if a == [0] or b == [0]:
        return 0
    if len(a) == 1:
        return a[0] ** (len(b) - 1)
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    sign = 1
    if len(a) < len(b):
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        a, b = b, a
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = _int_prem(a, b)
        if r == [0]:
            return 0
        a, b = b, r
        denom = g * h**delta
        b = [c // denom for c in b]
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g**delta // h ** (delta - 1)
        if len(b) == 1:
            da = len(a) - 1
            return sign * (b[0] ** da // h ** (da - 1))


@dataclass(frozen=True)
class Trinomial:
    """A*x^d + B*x^m + C with d > m >= 1 and gcd(m, d) = 1."""

    A: Fraction
    B: Fraction
    C: Fraction
    d: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "A", Fraction(self.A))
        object.__setattr__(self, "B", Fraction(self.B))
        object.__setattr__(self, "C", Fraction(self.C))
        if self.A == 0:
            raise ValueError("Trinomial: A must be nonzero")
        if not (self.d > self.m >= 1):
            raise ValueError("Trinomial: need d > m >= 1")
        if math.gcd(self.m, self.d) != 1:
            raise ValueError("Trinomial: need gcd(m, d) = 1")


def disc_trinomial(t: Trinomial) -> Fraction:
    """Closed-form discriminant of A*x^d + B*x^m + C.

    disc = (-1)^(d(d-1)/2) * A^(d-m-1) * C^(m-1)
           * [ (-1)^(d-1) * m^m * (d-m)^(d-m) * B^d + d^d * A^m * C^(d-m) ]

    Agrees identically with the discriminant from the resultant of the
    expanded trinomial, the independent oracle in the test suite.
    """
    d, m = t.d, t.m
    bracket = (
        Fraction((-1) ** (d - 1)) * m**m * (d - m) ** (d - m) * t.B**d
        + Fraction(d**d) * t.A**m * t.C ** (d - m)
    )
    return Fraction((-1) ** (d * (d - 1) // 2)) * t.A ** (d - m - 1) * t.C ** (m - 1) * bracket


def disc_trinomial_bits(t: Trinomial) -> int:
    """An upper bound on the bit length of the numerator and of the
    denominator of ``disc_trinomial(t)``, from d, m and the bit lengths
    of A, B and C alone, so that a caller can refuse an oversized value
    before any of it is built.

    With lg(x) = ceil(log2 x) (and lg(0) = 0), lg of a product is at
    most the sum of the factors' lg, and the two bracket terms
    a1/b1 + a2/b2 = (a1 b2 + a2 b1) / (b1 b2) add one bit to the larger
    cross product.
    """
    d, m = t.d, t.m

    def lg(x: int) -> int:
        return max(abs(x) - 1, 0).bit_length()

    num = {k: lg(getattr(t, k).numerator) for k in "ABC"}
    den = {k: lg(getattr(t, k).denominator) for k in "ABC"}
    num1 = m * lg(m) + (d - m) * lg(d - m) + d * num["B"]
    den1 = d * den["B"]
    num2 = d * lg(d) + m * num["A"] + (d - m) * num["C"]
    den2 = m * den["A"] + (d - m) * den["C"]
    bracket_num = max(num1 + den2, num2 + den1) + 1
    outer_num = (d - m - 1) * num["A"] + (m - 1) * num["C"]
    outer_den = (d - m - 1) * den["A"] + (m - 1) * den["C"]
    return max(outer_num + bracket_num, outer_den + den1 + den2) + 1


def critical_orbit(inst) -> Iterator[tuple[int, int]]:
    """The critical orbit w_1, w_2, ... of f = x^d - b*x^m, for m = d-1 or d-2,
    as integer pairs (W_k, S_k) with w_k = W_k / S_k (not reduced).

    w_0 = m*b/d and w_(k+1) = w_k^m * (w_k - b)^(d-m). For m = d-1,
    w_0 is the nonzero critical point eta and w_k = f^k(eta). For
    m = d-2 the nonzero critical points are +-eta with eta^2 = w_0, and
    w_k = f^k(eta)^2: f is odd, so squaring follows
    g(x) = x^(d-2) * (x - b)^2 and the irrational eta never appears.

    The denominator is S_k = L^(d^k) with L = d*den(b): from
    W_0 = m*num(b), S_0 = L, the step is
    W_(k+1) = W_k^m * (W_k - (S_k / den(b))*num(b))^(d-m), S_(k+1) = S_k^d,
    exact because d^(k+1) = m*d^k + (d-m)*d^k and den(b) divides S_k.
    No Fraction is formed, so no gcd is taken.
    ``inst`` is anything with attributes d, m, b.
    """
    d, m, b = inst.d, inst.m, Fraction(inst.b)
    if m not in (d - 1, d - 2):
        raise ValueError(f"critical_orbit: unsupported (d, m) = ({d}, {m})")
    num, den = b.numerator, b.denominator
    w, scale = m * num, d * den
    while True:
        w, scale = w**m * (w - scale // den * num) ** (d - m), scale**d
        yield w, scale


def _prime_support(n: int) -> Optional[list[int]]:
    """The primes dividing n >= 1, or None unless trial division to
    _DENOMINATOR_TRIAL_BOUND and a deterministic primality test of the
    cofactor find them all. Divides by 2 and the odd numbers, so that
    no sieve is built and kept."""
    primes = []
    for p in itertools.chain((2,), range(3, _DENOMINATOR_TRIAL_BOUND + 1, 2)):
        if p * p > n:
            break
        if n % p == 0:
            primes.append(p)
            n //= p ** val(n, p)
    if n > 1:
        if n >= MR_DETERMINISTIC_BOUND or not is_prime(n):
            return None
        primes.append(n)
    return primes


def _quotient_bits(a: int, g: int) -> int:
    """Bit length of a / g for g >= 1 dividing a, without dividing."""
    if a == 0:
        return 0
    shift = a.bit_length() - g.bit_length()
    # |a| >= g * 2^shift exactly when the quotient has shift + 1 bits
    return shift + 1 if abs(a) >> shift >= g else shift


def disc_levels(inst, bit_budget: int = DEFAULT_BIT_BUDGET) -> Iterator[tuple[int, int]]:
    """disc(f^k - x0) for k = 1, 2, ... with f = x^d - b*x^m, without
    expanding f^k, as integer pairs (N_k, D_k) with D_k > 0 and
    disc(f^k - x0) = N_k / D_k (not reduced).

    Uses the level recursion, starting from disc(f^0 - x0) = 1,

        disc(f^(k+1) - x0) = A~^(d^k) * disc(f^k - x0)^d * (crit factor),
        A~ = (-1)^(d(d-1)/2) * d^d,

    where the critical factor, the product of f^(k+1)(r) - x0 over the
    critical points r of f with multiplicity, is
    sigma * (w_(k+1) - x0^(d-m)) on the critical orbit, with
    sigma = (-1)^d * x0^(m-1). With w_(k+1) = W/S from
    ``critical_orbit`` and x0^(d-m) = u/v, the pairs step as

        N_(k+1) = A~^(d^k) * N_k^d * num(sigma) * (W*v - u*S),
        D_(k+1) = D_k^d * den(sigma) * S * v,

    from N_0 = D_0 = 1, so no gcd is taken. Once a level is 0, every
    later one is (0, 1), and the orbit is no longer stepped. Supported
    shapes are m = d-1 and m = d-2 with gcd(m, d) = 1; other (d, m) with
    0 <= m < d fall back to the integer resultant of f^k - x0
    (``polymod.iterates_minus_x0``) and its derivative, reduced, while
    d^k <= 32 and raise ValueError past that (and for any other d, m).

    ``inst`` is anything with attributes d, m, b, x0. Growth is doubly
    exponential in k. A level is measured by the bits of its reduced
    numerator and denominator, and one over ``bit_budget`` bits raises
    BitBudgetExceededError, which ends the sequence. Only a pair over
    the budget is measured reduced, by its gcd g, and it is not divided
    by g. Every prime of D_k divides d*den(b)*den(x0); when those primes
    are known, g follows from p-adic valuations that step with the
    pairs, and otherwise it is math.gcd(N_k, D_k).
    """
    d, m = inst.d, inst.m
    if d < 2 or not 0 <= m < d:
        raise ValueError(f"disc_levels: need d >= 2 and 0 <= m < d, got (d, m) = ({d}, {m})")
    b, x0 = Fraction(inst.b), Fraction(inst.x0)
    if m not in (d - 1, d - 2) or math.gcd(m, d) != 1:
        # f^k - x0 = H/c with c = lc(H) and n = d^k, so
        # disc = (-1)^(n(n-1)/2) * Res(H, H') / c^(2n-1)
        levels, level = iterates_minus_x0(inst), 1
        while d**level <= 32:
            h, n = next(levels), d**level
            res = _int_resultant(h, [i * c for i, c in enumerate(h)][1:])
            disc = Fraction((-1) ** (n * (n - 1) // 2) * res, h[-1] ** (2 * n - 1))
            yield disc.numerator, disc.denominator
            level += 1
        raise ValueError(f"disc_levels: unsupported (d, m) = ({d}, {m}) past level {level - 1}")
    a_tilde = (-1) ** (d * (d - 1) // 2) * d**d
    sigma = (-1) ** d * x0 ** (m - 1)
    x0_shift = x0 ** (d - m)
    u, v = x0_shift.numerator, x0_shift.denominator
    lead = d * b.denominator  # the orbit's scale is lead^(d^(k+1))
    primes = _prime_support(lead * x0.denominator)
    val_num = dict.fromkeys(primes or (), 0)  # p -> v_p(N_k)
    val_den = dict.fromkeys(primes or (), 0)  # p -> v_p(D_k)
    num, den = 1, 1
    for k, (w, scale) in enumerate(critical_orbit(inst)):
        x = w * v - u * scale
        num = num**d * (a_tilde ** (d**k) * sigma.numerator * x)
        den = den**d * (sigma.denominator * scale * v) if num else 1
        if num:
            for p in val_num:
                val_num[p] = (
                    d**k * val(a_tilde, p)
                    + d * val_num[p]
                    + val(sigma.numerator, p)
                    + val(x, p)
                )
                val_den[p] = (
                    d * val_den[p]
                    + val(sigma.denominator * v, p)
                    + d ** (k + 1) * val(lead, p)
                )
        if num.bit_length() + den.bit_length() > bit_budget:
            if primes is None:
                g = math.gcd(num, den)
            else:
                g = math.prod(p ** min(val_num[p], val_den[p]) for p in primes)
            bits = _quotient_bits(num, g) + _quotient_bits(den, g)
            if bits > bit_budget:
                raise BitBudgetExceededError(
                    f"disc_levels: {bits} bits at level {k + 1} exceeds budget {bit_budget}"
                )
        yield num, den
        if not num:
            break
    # every later numerator has N_k^d as a factor
    yield from itertools.repeat((0, 1))


def disc_iterate(inst, n: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> Fraction:
    """Discriminant of f^n - x0: level n of ``disc_levels``."""
    if n < 1:
        raise ValueError("disc_iterate: n must be >= 1")
    num, den = next(itertools.islice(disc_levels(inst, bit_budget), n - 1, None))
    return Fraction(num, den)

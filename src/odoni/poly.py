"""Discriminants of trinomials and of the iterates f^k - x0 of
f = x^d - b*x^m, and the critical orbit of f.

The trinomial discriminant has a closed form. disc(f^k - x0) follows
the level recursion driven by the critical orbit, for the paper's two
shapes m = d-1 and m = d-2; no other shape is accepted. Each level's
bits are bounded before the level is built. Polynomials over Q,
composition and the resultants over Z and over Q are the test suite's
oracle, not part of this module.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .arith import EXACT, CapExceededError, Number

DEFAULT_BIT_BUDGET = 2**20


# ---------------------------------------------------------------------------
# discriminants
# ---------------------------------------------------------------------------


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
    expanded trinomial, the independent oracle in the test suite. A
    bound (``disc_trinomial_bits``) over DEFAULT_BIT_BUDGET raises
    CapExceededError before any power is formed.
    """
    bits = disc_trinomial_bits(t)
    if bits > DEFAULT_BIT_BUDGET:
        raise CapExceededError(
            f"disc_trinomial: the discriminant may need {bits} bits, "
            f"over the bit budget {DEFAULT_BIT_BUDGET}"
        )
    d, m = t.d, t.m
    bracket = (
        Fraction((-1) ** (d - 1)) * m**m * (d - m) ** (d - m) * t.B**d
        + Fraction(d**d) * t.A**m * t.C ** (d - m)
    )
    return Fraction((-1) ** (d * (d - 1) // 2)) * t.A ** (d - m - 1) * t.C ** (m - 1) * bracket


def disc_trinomial_bits(t: Trinomial) -> int:
    """An upper bound on the bit length of the numerator and of the
    denominator of ``disc_trinomial(t)``, from d, m and the bit lengths
    of A, B and C alone, so that ``disc_trinomial`` refuses an oversized
    value before any of it is built.

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


def critical_orbit(inst, number: Callable[[int], Number] = int) -> Iterator[tuple[Number, Number]]:
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

    ``number`` is the caller's integer type, ``int`` or
    ``decimal.Decimal``: the starting values are converted to it, and
    every step runs in ``arith.EXACT``. ``inst`` is anything with
    attributes d, m, b.
    """
    d, m, b = inst.d, inst.m, Fraction(inst.b)
    if m not in (d - 1, d - 2):
        raise ValueError(f"critical_orbit: unsupported (d, m) = ({d}, {m})")
    num, den = number(b.numerator), number(b.denominator)
    w, scale = number(m * b.numerator), number(d * b.denominator)
    while True:
        with decimal.localcontext(EXACT):
            w, scale = w**m * (w - scale // den * num) ** (d - m), scale**d
        yield w, scale


def orbit_bits_step(inst, w_bits: int, s_bits: int) -> tuple[int, int]:
    """Upper bounds on bits(W_(k+1)) and bits(S_(k+1)) of ``critical_orbit``
    from bounds on bits(W_k) and bits(S_k), read off d, m and the bit
    lengths of b alone, so no value of the orbit is formed:

        bits(W_(k+1)) <= m*bits(W_k)
                         + (d-m)*(max(bits(W_k), bits(S_k / den(b)) + bits(num(b))) + 1),
        bits(S_(k+1)) <= d*bits(S_k),

    by bits(x*y) <= bits(x) + bits(y), bits(x^e) <= e*bits(x),
    bits(x - y) <= max(bits(x), bits(y)) + 1 and
    bits(x // y) <= bits(x) - bits(y) + 1.
    """
    d, m, b = inst.d, inst.m, Fraction(inst.b)
    b_num, b_den = b.numerator.bit_length(), b.denominator.bit_length()
    return m * w_bits + (d - m) * (max(w_bits, s_bits - b_den + 1 + b_num) + 1), d * s_bits


def disc_levels(inst) -> Iterator[tuple[int, int]]:
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
    later one is (0, 1), and the orbit is no longer stepped. The shapes
    are m = d-1 and m = d-2 with gcd(m, d) = 1; any other (d, m) raises
    ValueError before a level is built.

    ``inst`` is anything with attributes d, m, b, x0. Growth is doubly
    exponential in k, so bits(N_(k+1)) + bits(D_(k+1)) is bounded before
    the orbit is stepped or any factor of level k + 1 is formed: from
    level k's bit lengths and those of d, m, b and x0 (the orbit's by
    ``orbit_bits_step``), by
    bits(x*y) <= bits(x) + bits(y), bits(x^e) <= e*bits(x) and
    bits(x - y) <= max(bits(x), bits(y)) + 1 (so A~^(d^k) counts as
    d^(k+1) * bits(d) bits). A bound over ``DEFAULT_BIT_BUDGET``, read
    at each level, raises CapExceededError, which ends the sequence.
    """
    d, m = inst.d, inst.m
    if d < 2 or m not in (d - 1, d - 2) or math.gcd(m, d) != 1:
        raise ValueError(f"disc_levels: unsupported (d, m) = ({d}, {m})")
    b, x0 = Fraction(inst.b), Fraction(inst.x0)
    x0_shift = x0 ** (d - m)
    u, v = x0_shift.numerator, x0_shift.denominator
    w, scale = m * b.numerator, d * b.denominator  # W_0, S_0 of the orbit
    orbit = critical_orbit(inst)
    num, den = 1, 1
    for k in itertools.count():
        w_next, s_next = orbit_bits_step(inst, w.bit_length(), scale.bit_length())
        bits = (
            d * num.bit_length()
            + d ** (k + 1) * d.bit_length()
            + (m - 1) * x0.numerator.bit_length()
            + max(w_next + v.bit_length(), u.bit_length() + s_next) + 1
            + d * den.bit_length()
            + (m - 1) * x0.denominator.bit_length()
            + s_next
            + v.bit_length()
        )
        if bits > DEFAULT_BIT_BUDGET:
            raise CapExceededError(
                f"disc_levels: level {k + 1} may take up to {bits} bits, over the budget {DEFAULT_BIT_BUDGET}"
            )
        sigma = (-1) ** d * x0 ** (m - 1)  # a factor of level 1, so in budget
        w, scale = next(orbit)
        a_tilde_power = (-1) ** (d * (d - 1) // 2 * d**k) * d ** (d ** (k + 1))
        num = num**d * (a_tilde_power * sigma.numerator * (w * v - u * scale))
        den = den**d * (sigma.denominator * scale * v) if num else 1
        yield num, den
        if not num:
            break
    # every later numerator has N_k^d as a factor
    yield from itertools.repeat((0, 1))


def disc_iterate(inst, n: int) -> Fraction:
    """Discriminant of f^n - x0: level n of ``disc_levels``."""
    if n < 1:
        raise ValueError("disc_iterate: n must be >= 1")
    num, den = next(itertools.islice(disc_levels(inst), n - 1, None))
    return Fraction(num, den)

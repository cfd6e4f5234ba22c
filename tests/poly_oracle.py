"""Dense polynomials over Q: the test suite's oracle for f^n - x0.

Production composes f^n - x0 as an integer list
(``odoni.polymod.iterates_minus_x0``); here the same polynomial comes
from Horner composition of Fraction polynomials, and its discriminant
from the resultant of the expanded polynomial with the denominators
cleared. That resultant is the fraction-free subresultant remainder
sequence over Z (``int_resultant``), which also takes the integer
lists directly (``int_list_disc``). ``expand`` and ``f_poly`` build the trinomials and
instance maps these oracles take.

Coefficients are ``fractions.Fraction``; polynomials are immutable
tuples in ascending-degree order with trailing zeros trimmed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from odoni.poly import Trinomial

Scalar = Union[int, Fraction]


def _as_fraction_tuple(coeffs: Iterable[Scalar]) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if not out:
        out = [Fraction(0)]
    return tuple(out)


class Poly:
    """Immutable dense polynomial over Q; coeffs[i] multiplies x^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        object.__setattr__(self, "coeffs", _as_fraction_tuple(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        if self.is_zero():
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    @property
    def lc(self) -> Fraction:
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly((0,))
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, v: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def derivative(self) -> "Poly":
        if len(self.coeffs) == 1:
            return Poly((0,))
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))


def compose(f: Poly, g: Poly) -> Poly:
    """f(g(x)) by Horner's scheme in g."""
    acc = Poly.constant(f.coeffs[-1])
    for c in reversed(f.coeffs[:-1]):
        acc = acc * g + c
    return acc


def iterate(f: Poly, n: int) -> Poly:
    """n-fold self-composition; iterate(f, 0) is x."""
    if n < 0:
        raise ValueError("iterate: n must be >= 0")
    g = Poly.x()
    for _ in range(n):
        g = compose(f, g)
    return g


def int_prem(a: list[int], b: list[int]) -> list[int]:
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


def int_resultant(a: list[int], b: list[int]) -> int:
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
        r = int_prem(a, b)
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


def int_list_disc(h: list[int]) -> Fraction:
    """disc(H / lc(H)) for an integer list H of degree n >= 1:
    (-1)^(n(n-1)/2) * Res(H, H') / lc(H)^(2n-1), reduced."""
    n = len(h) - 1
    res = int_resultant(h, [i * c for i, c in enumerate(h)][1:])
    return Fraction((-1) ** (n * (n - 1) // 2) * res, h[-1] ** (2 * n - 1))


def resultant(f: Poly, g: Poly) -> Fraction:
    """Exact resultant Res(f, g) over Q.

    Denominators are cleared and the integer subresultant sequence does
    the work, keeping intermediate coefficient growth linear in the
    answer's size rather than exponential.
    """
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    df, dg = f.degree, g.degree
    if df == 0:
        return f.coeffs[0] ** dg
    if dg == 0:
        return g.coeffs[0] ** df
    af = math.lcm(*[c.denominator for c in f.coeffs])
    ag = math.lcm(*[c.denominator for c in g.coeffs])
    fi = [int(c * af) for c in f.coeffs]
    gi = [int(c * ag) for c in g.coeffs]
    r = int_resultant(fi, gi)
    return Fraction(r, af**dg * ag**df)


def disc_resultant(f: Poly) -> Fraction:
    """Discriminant via the resultant, with the sign convention
    disc(f) = (-1)^(n(n-1)/2) * Res(f, f') / lc(f)."""
    n = f.degree
    if n < 1:
        raise ValueError("disc_resultant: polynomial must be non-constant")
    if n == 1:
        return Fraction(1)
    r = resultant(f, f.derivative())
    return Fraction((-1) ** (n * (n - 1) // 2)) * r / f.lc


def expand(t: Trinomial) -> Poly:
    """A*x^d + B*x^m + C as a Poly."""
    coeffs = [Fraction(0)] * (t.d + 1)
    coeffs[0] = t.C
    coeffs[t.m] += t.B
    coeffs[t.d] = t.A
    return Poly(coeffs)


def f_poly(inst) -> Poly:
    """x^d - b*x^m of an instance (anything with attributes d, m, b)."""
    coeffs = [Fraction(0)] * (inst.d + 1)
    coeffs[inst.m] = -Fraction(inst.b)
    coeffs[inst.d] = Fraction(1)
    return Poly(coeffs)

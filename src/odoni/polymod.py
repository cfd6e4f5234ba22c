"""Polynomials over prime fields and the factor-degree pattern of a
squarefree polynomial.

The pattern comes from distinct-degree factorization alone: for monic
squarefree v over GF(p), gcd(v, x^(p^i) - x) is the product of the
degree-i irreducible factors of v once the factors of degree below i
are divided out, so each block's degree divided by i counts its
factors (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 14).
No factor is split out, so there is no equal-degree (Cantor-Zassenhaus)
stage.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


class PolyModP:
    """Immutable dense polynomial over GF(p), ascending coefficients."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs: Iterable[int], p: int):
        reduced = [c % p for c in coeffs]
        while len(reduced) > 1 and reduced[-1] == 0:
            reduced.pop()
        if not reduced:
            reduced = [0]
        object.__setattr__(self, "coeffs", tuple(reduced))
        object.__setattr__(self, "p", p)

    def __setattr__(self, *_):
        raise AttributeError("PolyModP is immutable")

    @classmethod
    def from_rational_coeffs(cls, coeffs: Iterable[int | Fraction], p: int) -> "PolyModP":
        """Reduce rational coefficients mod p; denominators must be units."""
        out = []
        for c in coeffs:
            c = Fraction(c)
            if c.denominator % p == 0:
                raise ValueError(f"coefficient denominator divisible by {p}")
            out.append(c.numerator * pow(c.denominator, -1, p) % p)
        return cls(out, p)

    @property
    def degree(self) -> int:
        if self.is_zero():
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    @property
    def lc(self) -> int:
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __eq__(self, other):
        return (
            isinstance(other, PolyModP)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.p))

    def __repr__(self):
        return f"PolyModP({list(self.coeffs)}, p={self.p})"

    def _check_field(self, other: "PolyModP"):
        if self.p != other.p:
            raise ValueError("mixed moduli")

    def __add__(self, other: "PolyModP") -> "PolyModP":
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return PolyModP(out, self.p)

    def __sub__(self, other: "PolyModP") -> "PolyModP":
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * max(0, len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = (out[i] - c) % self.p
        return PolyModP(out, self.p)

    def __mul__(self, other) -> "PolyModP":
        if isinstance(other, int):
            return PolyModP([c * other for c in self.coeffs], self.p)
        self._check_field(other)
        if self.is_zero() or other.is_zero():
            return PolyModP([0], self.p)
        p = self.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    if bj:
                        out[i + j] = (out[i + j] + ai * bj) % p
        return PolyModP(out, p)

    __rmul__ = __mul__

    def __divmod__(self, other: "PolyModP") -> tuple["PolyModP", "PolyModP"]:
        self._check_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        a = list(self.coeffs)
        db = other.degree
        inv = pow(other.lc, -1, p)
        q = [0] * max(1, len(a) - db)
        while len(a) - 1 >= db and not (len(a) == 1 and a[0] == 0):
            da = len(a) - 1
            c = a[-1] * inv % p
            q[da - db] = c
            for i in range(db + 1):
                a[da - db + i] = (a[da - db + i] - c * other.coeffs[i]) % p
            while len(a) > 1 and a[-1] == 0:
                a.pop()
        return PolyModP(q, p), PolyModP(a, p)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "PolyModP":
        if self.is_zero() or self.is_monic():
            return self
        inv = pow(self.lc, -1, self.p)
        return self * inv

    def gcd(self, other: "PolyModP") -> "PolyModP":
        """Monic gcd."""
        self._check_field(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def pow_mod(self, e: int, modulus: "PolyModP") -> "PolyModP":
        """self^e reduced mod (modulus, p) by square and multiply."""
        result = PolyModP([1], self.p)
        base = self % modulus
        while e:
            if e & 1:
                result = result * base % modulus
            base = base * base % modulus
            e >>= 1
        return result


def cycle_type_mod_p(f: PolyModP) -> tuple[int, ...]:
    """Degrees of the irreducible factors of a squarefree, non-constant
    f over GF(p), in descending order.

    Squarefreeness is the caller's guarantee (at a prime of good
    reduction it holds); a repeated factor gives a wrong pattern, not an
    error.
    """
    if f.degree < 1:
        raise ValueError("cycle_type_mod_p: polynomial must be non-constant")
    p = f.p
    x = PolyModP([0, 1], p)
    v = f.monic()
    frob = x  # x^(p^i) mod v
    degrees: list[int] = []
    i = 0
    while v.degree > 0:
        i += 1
        if 2 * i > v.degree:
            degrees.append(v.degree)  # no factor below degree i, so v is irreducible
            break
        frob = frob.pow_mod(p, v)
        block = v.gcd(frob - x)
        if block.degree > 0:
            degrees.extend([i] * (block.degree // i))
            v = v // block
            frob = frob % v
    return tuple(sorted(degrees, reverse=True))



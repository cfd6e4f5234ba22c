"""Polynomials over Z and Z/m as plain ascending coefficient lists:
the iterates f^k - x0 of f = x^d - b*x^m, and the factor-degree pattern
of a squarefree polynomial over GF(p).

One product kernel, ``_mul_mod``, serves the composition of f^k - x0
(over Z for the sampler and the discriminant fallback, over Z/p1^2 for
the Eisenstein check). The pattern comes from distinct-degree
factorization alone: for squarefree u over GF(p), gcd(v, x^(p^i) - x)
is the product of the degree-i irreducible factors of u once the factors
of degree below i are divided out of u, leaving v, so each block's degree
divided by i counts its factors (von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 14). No factor is split out, so there is no
equal-degree (Cantor-Zassenhaus) stage.

Each prime pays for one exponentiation, x^p mod u. The p-th power map
is GF(p)-linear on GF(p)[x]/(u), so every later x^(p^i) is one product
of the Frobenius (Petr-Berlekamp) matrix, rows x^(j*p) mod u, with the
previous power's coefficients. The powers stay reduced mod u: v divides
u, so they give the same gcd with v as powers reduced mod v would.
Residues mod u are packed into one integer each (Kronecker
substitution), so a product mod u is one integer product and a fold.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional


def _divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over GF(p), for b whose leading
    coefficient is a unit; the remainder has no trailing zeros."""
    a = list(a)
    k = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - k, 0)
    for i in range(len(a) - 1, k - 1, -1):
        c = a[i] * inv % p
        if c:
            q[i - k] = c
            for j in range(k):
                a[i - k + j] -= c * b[j]
    r = [c % p for c in a[:k]]
    while r and not r[-1]:
        r.pop()
    return q, r


def _mul_mod(a: list[int], b: list[int], modulus: Optional[int]) -> list[int]:
    """Product of two ascending coefficient lists, reduced mod ``modulus``
    (over Z when it is None)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    if modulus is None:
        return out
    return [c % modulus for c in out]


def _pow_mod(g: list[int], e: int, modulus: Optional[int]) -> list[int]:
    """g^e by square and multiply, reduced as ``_mul_mod`` reduces."""
    result = [1]
    while e:
        if e & 1:
            result = _mul_mod(result, g, modulus)
        e >>= 1
        if e:
            g = _mul_mod(g, g, modulus)
    return result


def iterates_minus_x0(inst, modulus: Optional[int] = None) -> Iterator[list[int]]:
    """H_k for k = 1, 2, ...: integer coefficient lists (ascending) with
    f^k - x0 = H_k / lc(H_k) for f = x^d - b*x^m, reduced mod ``modulus``
    when it is given.

    With b = B/beta and x0 = X/xi, f^k = G_k / delta_k steps as

        G_(k+1) = G_k^m * (beta*G_k^(d-m) - B*delta_k^(d-m)),
        delta_(k+1) = delta_k^d * beta,

    from G_0 = x, delta_0 = 1, and H_k = xi*G_k - X*delta_k. f^k is
    monic, so lc(G_k) = delta_k and lc(H_k) = xi*delta_k, whose primes
    divide den(b)*den(x0). No rational is formed and nothing is
    inverted, so any modulus works. ``inst`` is anything with
    attributes d, m, b, x0; m outside 0 <= m < d raises ValueError.
    """
    d, m = inst.d, inst.m
    if not 0 <= m < d:
        raise ValueError(f"iterates_minus_x0: need 0 <= m < d, got (d, m) = ({d}, {m})")
    b, x0 = Fraction(inst.b), Fraction(inst.x0)
    big_b, beta = b.numerator, b.denominator
    big_x, xi = x0.numerator, x0.denominator
    g, delta = [0, 1], 1
    while True:
        inner = [beta * c for c in _pow_mod(g, d - m, modulus)]
        inner[0] -= big_b * delta ** (d - m)
        g = _mul_mod(_pow_mod(g, m, modulus), inner, modulus)
        delta = delta**d * beta
        h = [xi * c for c in g]
        h[0] -= big_x * delta
        if modulus is not None:
            delta %= modulus
            h = [c % modulus for c in h]
        yield h


class _PackedRing:
    """GF(p)[x]/(u) for u with a unit leading coefficient, k = deg u >= 1.

    An element c_0 + c_1 x + ... + c_(k-1) x^(k-1) is one integer with c_j
    in bits [j*w, (j+1)*w) (Kronecker substitution x -> 2^w), so a product
    of two elements is one integer product. Slots hold non-negative
    values and are reduced mod p only by ``reduced`` and ``coeffs``. The
    largest unreduced slot below, a square folded and then multiplied by
    x, is under k^2 * p^4 <= 2^w for w = 4*bits(p) + 2*bits(k), so no
    slot carries into the next.
    """

    __slots__ = ("p", "k", "w", "shifts", "mask", "low", "neg", "fold_rows")

    def __init__(self, u: list[int], p: int):
        k = len(u) - 1
        inv = pow(u[-1], -1, p)
        self.p, self.k = p, k
        self.w = w = 4 * p.bit_length() + 2 * k.bit_length()
        self.shifts = [w * j for j in range(2 * k)]
        self.mask = (1 << w) - 1
        self.low = (1 << (w * k)) - 1
        # x^k mod u
        self.neg = sum((-c * inv % p) << s for c, s in zip(u[:k], self.shifts))
        # x^j mod u for j = k .. 2k-2: slot j of a product folds onto row j - k
        self.fold_rows: list[int] = []
        row = 1 << (w * (k - 1))
        for _ in range(k - 1):
            row = self.reduced(self.times_x(row))
            self.fold_rows.append(row)

    def coeffs(self, a: int) -> list[int]:
        """The k coefficients of a packed element, reduced mod p."""
        mask, p = self.mask, self.p
        return [((a >> s) & mask) % p for s in self.shifts[: self.k]]

    def reduced(self, a: int) -> int:
        """a (k slots) with every slot reduced mod p."""
        mask, p = self.mask, self.p
        out = 0
        for s in self.shifts[: self.k]:
            out += (((a >> s) & mask) % p) << s
        return out

    def fold(self, a: int) -> int:
        """A product of two elements (2k - 1 slots) mod u, slots unreduced."""
        mask = self.mask
        out = a & self.low
        for s, row in zip(self.shifts[self.k :], self.fold_rows):
            out += ((a >> s) & mask) * row
        return out

    def times_x(self, a: int) -> int:
        """x*a mod u: a shift and one reduction step."""
        a <<= self.w
        return (a & self.low) + (a >> self.shifts[self.k]) * self.neg

    def x_pow(self, e: int) -> int:
        """x^e, left to right: square at each bit of e and multiply by x
        where the bit is set. The leading bits of e, while their value
        stays below k, give the starting monomial directly."""
        i = 0
        while e >> i >= self.k:
            i += 1
        a = 1 << self.shifts[e >> i]
        for j in range(i - 1, -1, -1):
            a = self.fold(a * a)
            if e >> j & 1:
                a = self.times_x(a)
            a = self.reduced(a)
        return a


def _frobenius_powers(u: list[int], p: int) -> Iterator[list[int]]:
    """x^(p^i) mod u over GF(p) for i = 1, 2, ..., as deg u coefficients.

    Only x^p is an exponentiation. The p-th power map is GF(p)-linear on
    GF(p)[x]/(u), so with rows R_j = x^(j*p) mod u (R_0 = 1, R_1 = x^p,
    R_j = R_(j-1) * x^p), x^(p^i) = sum c_j x^j gives
    x^(p^(i+1)) = sum c_j R_j: one matrix-vector product per step (the
    Petr-Berlekamp matrix; von zur Gathen & Gerhard, ch. 14). The rows
    are built when the second power is asked for.
    """
    ring = _PackedRing(u, p)
    frob = ring.x_pow(p)
    coeffs = ring.coeffs(frob)
    yield coeffs
    rows = [1, frob]
    for _ in range(2, ring.k):
        rows.append(ring.reduced(ring.fold(rows[-1] * frob)))
    while True:
        coeffs = ring.coeffs(sum(c * row for c, row in zip(coeffs, rows) if c))
        yield coeffs


def cycle_type_mod_p(f: list[int], p: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors over GF(p) of the squarefree,
    non-constant integer polynomial f (ascending coefficients), in
    descending order.

    The leading coefficient must be a unit mod p. Squarefreeness is the
    caller's guarantee (at a prime of good reduction it holds); a
    repeated factor gives a wrong pattern, not an error.

    Each prime pays for one exponentiation, x^p mod u with u = f mod p;
    every later x^(p^i) is one linear step (``_frobenius_powers``). The
    powers stay reduced mod u, not mod the v left after dividing out the
    factors of degree below i: v divides u, so x^(p^i) mod u and mod v
    differ by a multiple of v and give the same gcd(v, x^(p^i) - x).
    """
    if len(f) < 2:
        raise ValueError("cycle_type_mod_p: polynomial must be non-constant")
    if f[-1] % p == 0:
        raise ValueError(f"cycle_type_mod_p: leading coefficient divisible by {p}")
    v = [c % p for c in f]  # every divisor below keeps a unit leading coefficient
    frobs = _frobenius_powers(v, p)
    degrees: list[int] = []
    i = 0
    while len(v) > 1:
        i += 1
        if 2 * i > len(v) - 1:
            degrees.append(len(v) - 1)  # no factor below degree i, so v is irreducible
            break
        # gcd(v, x^(p^i) - x)
        b = next(frobs)[:]
        b[1] = (b[1] - 1) % p
        while b and not b[-1]:
            b.pop()
        a = v
        while b:
            a, b = b, _divmod_mod(a, b, p)[1]
        if len(a) > 1:
            degrees.extend([i] * ((len(a) - 1) // i))
            v = _divmod_mod(v, a, p)[0]
    return tuple(sorted(degrees, reverse=True))

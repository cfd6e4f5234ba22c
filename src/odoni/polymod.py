"""Polynomials over Z and Z/m as plain ascending coefficient lists:
the iterates f^k - x0 of f = x^d - b*x^m, and the factor-degree pattern
of a squarefree polynomial over GF(p).

One product kernel, ``_mul_mod``, serves the composition of f^k - x0
(over Z for the sampler and the discriminant fallback, over Z/p1^2 for
the Eisenstein check) and the distinct-degree factorization below. The
pattern comes
from distinct-degree factorization alone: for monic squarefree v over
GF(p), gcd(v, x^(p^i) - x) is the product of the degree-i irreducible
factors of v once the factors of degree below i are divided out, so
each block's degree divided by i counts its factors (von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 14). No factor is split out,
so there is no equal-degree (Cantor-Zassenhaus) stage.
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


def _mul_mod(
    a: list[int], b: list[int], modulus: Optional[int], v: Optional[list[int]] = None
) -> list[int]:
    """Product of two ascending coefficient lists, reduced mod ``modulus``
    (over Z when it is None) and, when ``v`` is given, mod the
    polynomial v (modulus prime)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    if v is not None:
        return _divmod_mod(out, v, modulus)[1]
    if modulus is None:
        return out
    return [c % modulus for c in out]


def _pow_mod(
    g: list[int], e: int, modulus: Optional[int], v: Optional[list[int]] = None
) -> list[int]:
    """g^e by square and multiply, reduced as ``_mul_mod`` reduces."""
    result = [1]
    while e:
        if e & 1:
            result = _mul_mod(result, g, modulus, v)
        e >>= 1
        if e:
            g = _mul_mod(g, g, modulus, v)
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


def cycle_type_mod_p(f: list[int], p: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors over GF(p) of the squarefree,
    non-constant integer polynomial f (ascending coefficients), in
    descending order.

    The leading coefficient must be a unit mod p. Squarefreeness is the
    caller's guarantee (at a prime of good reduction it holds); a
    repeated factor gives a wrong pattern, not an error.
    """
    if len(f) < 2:
        raise ValueError("cycle_type_mod_p: polynomial must be non-constant")
    if f[-1] % p == 0:
        raise ValueError(f"cycle_type_mod_p: leading coefficient divisible by {p}")
    v = [c % p for c in f]  # every divisor below keeps a unit leading coefficient
    frob = [0, 1]  # x^(p^i) mod the v of each step
    degrees: list[int] = []
    i = 0
    while len(v) > 1:
        i += 1
        if 2 * i > len(v) - 1:
            degrees.append(len(v) - 1)  # no factor below degree i, so v is irreducible
            break
        frob = _pow_mod(frob, p, p, v)
        # gcd(v, frob - x)
        b = frob + [0] * (2 - len(frob))
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

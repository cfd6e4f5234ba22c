"""Trial division by the primes up to a bound: the test oracle of the
witness search in ``odoni.certify``.

``trial_factor`` reduces the product of the primes <= bound modulo n
(the smooth-part step of D. J. Bernstein, "How to find smooth parts of
integers", 2004), so its cost grows with the bits of n. The witness
search decides the same primes on the critical orbit modulo products of
16 primes instead; the tests check the two against each other, and
``trial_factor`` against division by each prime in turn.
"""

from __future__ import annotations

import functools
import math

from sieve_oracle import primes_up_to

# _reciprocal: below this, one long division beats Newton's iteration
_RECIPROCAL_DIRECT_BITS = 16384


@functools.lru_cache(maxsize=4)
def _primes(bound: int) -> tuple[int, ...]:
    return tuple(primes_up_to(bound))


@functools.lru_cache(maxsize=4)
def _product_tree_top(bound: int) -> list[list[int]]:
    """One slot holding the highest level built so far of the product
    tree of the primes <= bound; its lowest level is the products of
    256-prime slices of the sieve. The product of a level's nodes is P,
    the product of all primes <= bound, and no level holds more bits
    than P.
    """
    primes = _primes(bound)
    return [[math.prod(primes[i : i + 256]) for i in range(0, len(primes), 256)]]


def _prime_tree_level(bound: int, bits: int) -> list[int]:
    """The nodes of one level of the product tree of the primes <= bound:
    the cached level, raised pairwise while its nodes stay at most about
    ``bits`` bits. A level raised for a wider n is kept as it is."""
    top = _product_tree_top(bound)
    level = top[0]
    while len(level) > 1 and 2 * max(q.bit_length() for q in level) <= bits:
        level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
        top[0] = level
    return level


def _reciprocal(n: int) -> int:
    """floor(4^k / n) for n >= 1 with k the bit length of n.

    Newton's step x + x(4^k - n x) / 4^k from the reciprocal of the top
    h = k/2 + 2 bits of n roughly doubles the correct bits. The step
    never overshoots 4^k / n, so the last few units are added exactly.
    It needs only multiplications, so it is subquadratic where a long
    division before CPython 3.12 is not.
    """
    k = n.bit_length()
    if k <= _RECIPROCAL_DIRECT_BITS:
        return (1 << 2 * k) // n
    h = k // 2 + 2
    y = _reciprocal(n >> (k - h))  # ~ 2^(2h) / (n / 2^(k-h))
    x = (y << (k - h)) + (y * ((1 << (k + h)) - n * y) >> 2 * h)
    r = (1 << 2 * k) - n * x
    while r >= n:
        x += 1
        r -= n
    return x


def _smooth_gcd(n: int, bound: int) -> int:
    """gcd(n, P) for n >= 2 and bound >= 2, P the product of the primes <= bound.

    P is never formed: gcd(n, P) = gcd(n, prod Q_j mod n) over the nodes
    Q_j of one level of P's product tree, and the running product is
    reduced mod n by Barrett's method (mu = floor(2^(2k) / n) once, with
    k the bit length of n; then two multiplications and at most two
    subtractions per node), so each node costs a few multiplications of
    n-sized integers and no long division.
    """
    k = n.bit_length()
    mu = _reciprocal(n)
    r = 1
    for q in _prime_tree_level(bound, k):
        if q >= n:
            q %= n
        x = r * q  # < n^2 <= 2^(2k)
        r = x - ((x >> (k - 1)) * mu >> (k + 1)) * n
        while r >= n:
            r -= n
    return math.gcd(n, r)


def _smooth_primes(g: int, bound: int) -> list[int]:
    """The primes of g, ascending, for a squarefree g >= 1 whose primes
    are all <= bound.

    Walks the primes in slices of 256: the primes of a slice that divide
    g are those of h = gcd(g, Q), Q the slice's product, and g is divided
    by h. So g shrinks as its primes are found, one reduction of g by a
    product of a few thousand bits replaces 256 divisions of g, and the
    walk stops once g is below the square of the next slice's first
    prime, where g is 1 or a prime.
    """
    primes = _primes(bound)
    out = []
    for i in range(0, len(primes), 256):
        if g < primes[i] ** 2:
            break
        chunk = primes[i : i + 256]
        h = math.gcd(g, math.prod(chunk))
        if h > 1:
            g //= h
            out.extend(p for p in chunk if h % p == 0)
    if g > 1:
        out.append(g)
    return out


def trial_factor(n: int, bound: int = 10**6) -> tuple[dict[int, int], int]:
    """Partial factorization by trial division with primes <= bound.

    Returns (factors, cofactor) with factors a prime -> exponent map, in
    ascending order of the primes, and cofactor the unfactored remainder
    (1 if fully factored). The cofactor is deliberately not classified
    here; callers decide how much primality evidence they want on it.

    The primes <= bound that divide n are those of g_0 = gcd(n, P), with
    P the product of all of them (``_smooth_gcd``; the smooth-part step
    of D. J. Bernstein, "How to find smooth parts of integers", 2004).
    Whole products are then peeled off: n_1 = n / g_0, g_1 = gcd(n_1, g_0),
    n_2 = n_1 / g_1, and so on until g_k = 1. So g_i is the product of
    the primes of g_0 that divide n at least i + 1 times, a prime's
    exponent is the number of g_i it divides, and n is divided once per
    g_i rather than once per prime factor.
    """
    if bound < 0:
        raise ValueError(f"trial_factor: bound {bound} is negative")
    if n < 0:
        n = -n
    if n == 0:
        raise ValueError("trial_factor: 0 has no factorization")
    factors: dict[int, int] = {}
    if bound >= 2 and n > 1:
        g = _smooth_gcd(n, bound)
        peeled = []
        while g > 1:
            peeled.append(g)
            n //= g
            g = math.gcd(n, g)
        for g in peeled:
            for p in _smooth_primes(g, bound):
                factors[p] = factors.get(p, 0) + 1
    # all prime factors <= bound are divided out, so a remainder below
    # bound^2 cannot be composite
    if 1 < n <= bound * bound:
        factors[n] = factors.get(n, 0) + 1
        n = 1
    return factors, n

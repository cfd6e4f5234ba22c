"""The plain sieve of Eratosthenes over every integer up to a bound, in
one flag array: the test oracle of ``odoni.arith.primes_between``
(which sieves the odd numbers only, one fixed-size window at a time)
and of ``odoni.arith.primes_array`` (its primes up to a bound), and the
list of primes the other oracles walk."""

from __future__ import annotations

import itertools
import math


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending; [] for bound < 2."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, bound + 1, i)))
    return list(itertools.compress(range(bound + 1), sieve))

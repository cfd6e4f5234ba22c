"""Miller-Rabin with 64 bases drawn from a PRNG seeded by n: the test
oracle of ``odoni.arith.is_prime`` above its deterministic bound, where
the program runs Baillie-PSW instead. The two tests share no step but
the strong base round, so agreement on a corpus of primes, semiprimes,
Carmichael numbers and pseudoprimes checks the Lucas half too.
"""

from __future__ import annotations

import random

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
ROUNDS = 64


def seeded_miller_rabin(n: int) -> bool:
    """n passes trial division by the primes below 53 and 64 strong
    rounds to bases reproducible per n; a composite passes one round
    with probability at most 1/4."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(n ^ 0x6F646F6E69)
    for _ in range(ROUNDS):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True

import decimal
import math
import random
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
import trial_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

import odoni.arith as arith
from odoni.arith import (
    EXACT,
    INFINITY,
    _SIEVE_WINDOW,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    CapExceededError,
    bit_length,
    crt,
    decimal_str,
    is_prime,
    is_square,
    legendre,
    multiplicity,
    next_prime_where,
    primality_evidence,
    primes_between,
    residue,
    val,
)
from fn_helpers import compute_fn, fn_sequence_oracle
from odoni.certify import EXHIBIT_EFFORT_CAP
from odoni.construct import build_params
from odoni.poly import DEFAULT_BIT_BUDGET
from primality_oracle import seeded_miller_rabin
from sieve_oracle import primes_up_to
from trial_oracle import trial_factor

SMALL_PRIMES = [3, 5, 7, 11, 13]

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)


class TestVal:
    def test_examples(self):
        assert val(Fraction(50, 3), 5) == 2
        assert val(0, 7) is INFINITY
        assert val(Fraction(3249, 1503490), 5) == -1

    def test_negative_and_integer_inputs(self):
        assert val(-24, 2) == 3
        assert val(Fraction(1, 9), 3) == -2

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            val(Fraction(1, 2), 6)

    @staticmethod
    def _one_factor_loop(n, p):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        return e

    @pytest.mark.parametrize("p", [2, 3, 1009])
    def test_equals_one_factor_loop(self, p):
        exponents = [0, 1, 2] + [2**k + j for k in range(1, 12) for j in (-1, 1)] + [9000]
        for e in exponents:
            assert self._one_factor_loop(p**e * (p + 1), p) == e
            for unit in (p + 1, -(2 * p + 1)):
                n = unit * p**e
                assert multiplicity(n, p) == val(n, p) == e
                if e <= 2049:
                    assert multiplicity(Decimal(n), p) == e
                assert val(Fraction(n, 3 * p + 1), p) == e
                assert val(Fraction(3 * p + 1, n), p) == -e
                assert val(Fraction(n, p**7), p) == e - 7

    def test_huge_valuation(self):
        # about 18 divisions each way; stripping one factor of 2 per
        # division would take minutes
        assert val(3 * 2**300001, 2) == 300001
        assert val(Fraction(-5, 2**300001), 2) == -300001
        with decimal.localcontext(EXACT):
            n = -3 * Decimal(2) ** 300001
        assert multiplicity(n, 2) == 300001

    @given(a=rationals, b=rationals, p=st.sampled_from(SMALL_PRIMES))
    @settings(max_examples=150, deadline=None)
    def test_multiplicative(self, a, b, p):
        if a == 0 or b == 0:
            assert val(a * b, p) is INFINITY
        else:
            assert val(a * b, p) == val(a, p) + val(b, p)

    @given(a=rationals, b=rationals, p=st.sampled_from(SMALL_PRIMES))
    @settings(max_examples=150, deadline=None)
    def test_ultrametric(self, a, b, p):
        if a == 0 or b == 0 or a + b == 0:
            return
        va, vb, vs = val(a, p), val(b, p), val(a + b, p)
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)


class TestInfinity:
    def test_no_ordering(self):
        # a caller tests `is INFINITY` before comparing, as with arithmetic
        for compare in (
            lambda: INFINITY > 1,
            lambda: INFINITY >= 1,
            lambda: INFINITY < 1,
            lambda: INFINITY <= 1,
            lambda: 1 < INFINITY,
        ):
            with pytest.raises(TypeError):
                compare()

    def test_no_silent_arithmetic(self):
        with pytest.raises(TypeError):
            INFINITY + 1  # noqa: B018
        with pytest.raises(TypeError):
            2 * INFINITY  # noqa: B018


class TestLegendre:
    def test_examples(self):
        assert legendre(4, 5) == 1
        assert legendre(2, 5) == -1  # squares mod 5 are {1, 4}
        assert legendre(-1, 13) == 1
        assert legendre(10, 5) == 0

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            legendre(3, 2)
        with pytest.raises(ValueError):
            legendre(3, 15)

    @given(
        a=st.integers(min_value=-200, max_value=200),
        b=st.integers(min_value=-200, max_value=200),
        p=st.sampled_from(SMALL_PRIMES),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicative(self, a, b, p):
        if a % p == 0 or b % p == 0:
            return
        assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)

    def test_matches_square_table(self):
        for p in (5, 13, 29):
            squares = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                assert legendre(a, p) == (1 if a in squares else -1)

    def test_equals_euler_criterion(self):
        # every residue, negative representatives included, at each odd
        # prime below 2000; a window and a random sample above 10^6
        for p in primes_between(3, 1999):
            for a in range(-p, p):
                assert legendre(a, p) == _euler_criterion(a, p), (a, p)
        rng = random.Random(29)
        for p in (1_000_003, 1_000_033, 2**31 - 1, 10**12 + 39):
            assert is_prime(p)
            for a in [*range(-300, 300), *(rng.randrange(-p, p) for _ in range(2000))]:
                assert legendre(a, p) == _euler_criterion(a, p), (a, p)


def _euler_criterion(a: int, p: int) -> int:
    """(a|p) at an odd prime p as a^((p-1)/2) mod p, read as 0, 1 or -1."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


class TestCrt:
    def test_examples(self):
        assert crt([(1, 2), (2, 5), (3, 9)]) == 57
        assert crt([(0, 1)]) == 0
        assert crt([(1, 57), (23, 25)]) == 1198

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            crt([(1, 4), (2, 6)])

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 100), st.sampled_from([2, 3, 5, 7, 11, 13])),
            min_size=1,
            max_size=3,
            unique_by=lambda pair: pair[1],
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_against_exhaustive_scan(self, data):
        x = crt(data)
        modulus = 1
        for _, m in data:
            modulus *= m
        expected = next(
            c for c in range(modulus) if all(c % m == r % m for r, m in data)
        )
        assert x == expected


class TestPrimes:
    def test_is_prime_examples(self):
        assert not is_prime(1255)  # 5 * 251
        assert is_prime(2) and is_prime(3) and is_prime(251)
        assert not is_prime(561)  # Carmichael
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)

    def test_probabilistic_range(self):
        # 2^89 - 1 is a Mersenne prime above the deterministic bound
        n = 2**89 - 1
        assert primality_evidence(n) == "probabilistic"
        assert is_prime(n)
        assert primality_evidence(2**61 - 1) == "deterministic"

    def test_next_prime_where(self):
        assert next_prime_where(3, lambda p: p % 4 == 1) == 5
        assert next_prime_where(3, lambda p: p % 4 == 1 and legendre(3, p) == -1) == 5

    def test_search_cap(self):
        with pytest.raises(CapExceededError):
            next_prime_where(2, lambda p: False, cap=10**4)

    def test_primes_up_to(self):
        assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_up_to(1) == []


# above the deterministic bound, where is_prime runs Baillie-PSW
BOUND = arith.MR_DETERMINISTIC_BOUND
# strong pseudoprimes to base 2; the last passes every base from 2 to 23
BASE_2_PSEUDOPRIMES = [2047, 3277, 4033, 4681, 8321, 3215031751, 3825123056546413051]
# strong Lucas pseudoprimes with Selfridge's parameters
LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]
# composite Mersenne numbers above the bound, all strong pseudoprimes to base 2
MERSENNE_COMPOSITES = [2**p - 1 for p in (83, 97, 101, 103, 109, 113, 131)]


def _chernick(k):
    # (6k+1)(12k+1)(18k+1), a Carmichael number when all three are prime
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


class TestBailliePSW:
    """is_prime above MR_DETERMINISTIC_BOUND, the Baillie-PSW test,
    against 64 seeded Miller-Rabin rounds (the oracle in
    primality_oracle.py), and each of its two halves alone on the
    pseudoprimes of the other."""

    @staticmethod
    def _corpus():
        rng = random.Random(2024)
        values = [rng.getrandbits(rng.randrange(90, 601)) | 1 for _ in range(300)]
        primes = []
        while len(primes) < 24:
            n = rng.getrandbits(rng.randrange(45, 301)) | 1
            if seeded_miller_rabin(n):
                primes.append(n)
        values += primes + [p * q for p, q in zip(primes[::2], primes[1::2])]
        # the first k >= 1.4 * 10^7 whose three factors are prime; the last is
        # a strong pseudoprime to base 2
        values += [_chernick(k) for k in (14000240, 14000461, 14000720, 14001970)]
        # the least strong pseudoprime to all 13 fixed bases, 2 to 41
        values += [BOUND] + MERSENNE_COMPOSITES + [2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1]
        return [n for n in values if n >= BOUND]

    def test_agrees_with_seeded_miller_rabin(self):
        corpus = self._corpus()
        assert min(corpus) >= BOUND and len(corpus) > 300
        verdicts = [is_prime(n) for n in corpus]
        assert verdicts == [seeded_miller_rabin(n) for n in corpus]
        assert 10 < sum(verdicts) < len(corpus) - 10

    def test_base_2_passes_where_lucas_rejects(self):
        # the corpus's base-2 pseudoprimes: every one reaches the Lucas half
        hard = [BOUND, _chernick(14001970)] + MERSENNE_COMPOSITES + BASE_2_PSEUDOPRIMES
        for n in hard:
            assert _strong_probable_prime(n, 2), n
            assert not _strong_lucas_probable_prime(n), n
            assert not is_prime(n), n

    def test_lucas_passes_where_base_2_rejects(self):
        for n in LUCAS_PSEUDOPRIMES:
            assert _strong_lucas_probable_prime(n), n
            assert not _strong_probable_prime(n, 2), n

    def test_squares_rejected(self):
        # a square has no D with (D|n) = -1
        for p in (2**61 - 1, 2**89 - 1):
            assert not _strong_lucas_probable_prime(p * p)
            assert not is_prime(p * p)

    def test_decides_small_inputs_with_the_bound_lowered(self, monkeypatch):
        # with the bound at 0, Baillie-PSW decides every input past
        # trial division; it has no known counterexample below 2^64
        monkeypatch.setattr(arith, "MR_DETERMINISTIC_BOUND", 0)
        oracle = set(primes_up_to(10**5))
        assert [n for n in range(10**5) if is_prime(n) != (n in oracle)] == []
        assert not any(is_prime(n) for n in BASE_2_PSEUDOPRIMES + LUCAS_PSEUDOPRIMES)

    def test_without_lucas_half_a_mersenne_composite_passes(self, monkeypatch):
        # mutation control: 2^83 - 1 = 167 * 57912614113275649087721 is
        # rejected only by the Lucas half
        assert not is_prime(2**83 - 1)
        monkeypatch.setattr(arith, "_strong_lucas_probable_prime", lambda n: True)
        assert is_prime(2**83 - 1)

    def test_without_base_2_half_a_lucas_pseudoprime_passes(self, monkeypatch):
        # mutation control, with the bound lowered so 5459 = 53 * 103
        # takes the Baillie-PSW branch: only the base-2 half rejects it
        monkeypatch.setattr(arith, "MR_DETERMINISTIC_BOUND", 0)
        assert not is_prime(5459)
        monkeypatch.setattr(arith, "_strong_probable_prime", lambda n, a: True)
        assert is_prime(5459)

    def test_evidence_unchanged(self):
        assert primality_evidence(BOUND - 1) == "deterministic"
        assert primality_evidence(BOUND) == "probabilistic"


class TestSieves:
    """The window sieve of odoni.arith against the plain sieve over
    every integer (the oracle in sieve_oracle.py)."""

    def test_every_small_bound(self):
        for bound in range(2, 3001):
            assert list(primes_between(2, bound)) == primes_up_to(bound), bound

    @pytest.mark.parametrize("bound", [10**6, 10**6 + 1, EXHIBIT_EFFORT_CAP])
    def test_large_bounds(self, bound):
        assert list(primes_between(2, bound)) == primes_up_to(bound)

    def test_windows(self):
        oracle = primes_up_to(2 * 10**5)
        rng = random.Random(15)
        windows = [(0, 1), (0, 2), (-5, 3), (2, 2), (4, 4), (9, 9), (49, 49), (47, 53), (10, 9)]
        for lo in rng.sample(range(2 * 10**5 - 70000), 300):
            windows.append((lo, lo + rng.choice([0, 1, 30, 1000, 70000])))
        for lo, hi in windows:
            want = [p for p in oracle if lo <= p <= hi]
            assert list(primes_between(lo, hi)) == want, (lo, hi)

    def test_window_edges(self):
        # a window of _SIEVE_WINDOW odd-number flags spans 65536 integers,
        # and the first starts at the first odd number >= lo
        span = 2 * _SIEVE_WINDOW
        assert span == 65536
        windows = [(lo, hi) for lo in range(-2, 12) for hi in range(-2, 12)]  # hi < 9 among them
        for lo in (3, 4, 1000, 1001):  # odd and even lo
            first = lo | 1
            for k in (1, 2):
                # hi on the last flag of window k - 1, past it, and on the first flag of window k
                windows += [(lo, first + k * span - 2), (lo, first + k * span - 1), (lo, first + k * span)]
        windows.append((257**2 - span, 257**2 + 1000))  # the second window starts on 257^2
        windows += [(49, 5000), (257**2, 257**2 + span)]  # the first window starts on p^2
        windows.append((0, 5 * span + 17))  # several windows
        oracle = primes_up_to(6 * span)
        for lo, hi in windows:
            want = [p for p in oracle if lo <= p <= hi]
            assert list(primes_between(lo, hi)) == want, (lo, hi)

    def test_wide_window_far_from_two(self):
        # one window, 65536 wide, at 5 * 10^6, where the frobenius sampler runs
        lo, hi = 5 * 10**6, 5 * 10**6 + 65535
        want = [p for p in primes_up_to(hi) if p >= lo]
        assert list(primes_between(lo, hi)) == want

    def test_one_window_in_memory(self):
        # streamed, the sieve holds one 32 kB window, not a flag per odd
        # number up to the bound (500 kB at 10^6)
        tracemalloc.start()
        try:
            count = sum(1 for _ in primes_between(2, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 78498
        assert peak < 100_000


class TestIsSquare:
    def test_examples(self):
        assert is_square(Fraction(49, 81))
        assert not is_square(-4)
        assert is_square(3249)  # 57^2
        assert is_square(0)

    @given(q=rationals, p=st.sampled_from(SMALL_PRIMES))
    @settings(max_examples=150, deadline=None)
    def test_square_and_prime_times_square(self, q, p):
        assert is_square(q * q)
        if q != 0:
            assert not is_square(p * q * q)


class TestTrialFactor:
    def test_complete(self):
        factors, cofactor = trial_factor(2**4 * 3**2 * 101)
        assert factors == {2: 4, 3: 2, 101: 1}
        assert cofactor == 1

    def test_prime_remainder_below_bound_squared(self):
        # 10007 * 10009 with bound 10100: both primes found by division
        factors, cofactor = trial_factor(10007 * 10009, bound=10100)
        assert factors == {10007: 1, 10009: 1}
        assert cofactor == 1

    def test_unfactored_cofactor(self):
        big = (2**61 - 1) * (2**89 - 1)
        factors, cofactor = trial_factor(big, bound=1000)
        assert factors == {}
        assert cofactor == big


def plain_trial_factor(n, bound):
    """Oracle: divide by every prime <= bound in turn."""
    n = abs(n)
    factors = {}
    for p in primes_up_to(bound):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if 1 < n <= bound * bound:
        factors[n] = factors.get(n, 0) + 1
        n = 1
    return factors, n


BOUNDS = [0, 1, 2, 1000, 10100]


def _edge_inputs(bound):
    """The largest prime <= bound, its square, and its product with the
    next prime above bound."""
    if bound < 2:
        return []
    top = primes_up_to(bound)[-1]
    above = next_prime_where(bound + 1, lambda p: True)
    return [top, top * top, top * above]


def _critical_orbit_integers():
    return [
        v.F_n for d, depth in ((2, 10), (3, 7)) for v in fn_sequence_oracle(build_params(d), depth)
    ]


class TestTrialFactorOracle:
    """The prime-product trial division against the plain loop."""

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_small_inputs(self, bound):
        inputs = [1, -1, -12, -(2**5 * 10007), 2**200 * 3**50 * 101] + _edge_inputs(bound)
        for n in inputs:
            assert trial_factor(n, bound) == plain_trial_factor(n, bound), n

    def test_zero_rejected(self):
        for bound in BOUNDS:
            with pytest.raises(ValueError):
                trial_factor(0, bound)

    def test_negative_bound_rejected(self):
        # with bound^2 > 0 the cofactor rule would call 107 * 6949 * 10151 prime
        for bound in (-1, -100000):
            with pytest.raises(ValueError, match="negative"):
                trial_factor(107 * 6949 * 10151, bound)

    def test_critical_orbit_integers(self):
        for f_n in _critical_orbit_integers():
            for bound in BOUNDS + [10**6]:
                assert trial_factor(f_n, bound) == plain_trial_factor(f_n, bound)


class TestTrialFactorPeeling:
    """Whole products peeled off n, against division by each prime in turn."""

    def test_repeated_and_large_exponents(self):
        rng = random.Random(7)
        primes = primes_up_to(10**4)
        inputs = [
            2**3000,
            3**700 * 999983**5 * 1000003,
            2**64 * 3**40 * 10007**12 * (2**89 - 1),
            math.prod(primes[:300]) ** 3 * math.prod(primes[300:600]),
        ]
        for _ in range(30):
            chosen = rng.sample(primes, rng.randint(1, 12))
            inputs.append(math.prod(p ** rng.choice([1, 1, 2, 3, 17, 120]) for p in chosen))
        for index, n in enumerate(inputs):
            for bound in (1000, 10**4) if index >= 4 else (1000, 10**4, 10**6):
                got, want = trial_factor(n, bound), plain_trial_factor(n, bound)
                assert got == want, (n.bit_length(), bound)
                # same keys in the same (ascending) order
                assert list(got[0].items()) == list(want[0].items())

    def test_smooth_primes(self):
        primes = primes_up_to(10**6)
        for chosen in ([2], [999983], primes[250:262], primes[::997], primes[-300:]):
            g = math.prod(chosen)
            assert trial_oracle._smooth_primes(g, 10**6) == sorted(chosen)
        assert trial_oracle._smooth_primes(1, 10**6) == []

    def test_prime_product_time(self):
        # the product of the 17984 primes <= 2*10^5 (288 kbit): dividing
        # n by each prime in turn took about 4 s on a 2-core box with
        # CPython 3.11; peeling and the slice walk take about 0.5 s
        primes = primes_up_to(2 * 10**5)
        n = math.prod(primes)
        started = time.perf_counter()
        factors, cofactor = trial_factor(n, 10**6)
        elapsed = time.perf_counter() - started
        assert cofactor == 1 and list(factors) == primes
        assert set(factors.values()) == {1}
        assert elapsed < 2.0, elapsed


def _prime_product(bound):
    """P, the product of all primes <= bound: products of 256-prime
    slices multiplied pairwise up a tree (the route trial_factor took
    before it stopped forming P)."""
    primes = primes_up_to(bound)
    level = [math.prod(primes[i : i + 256]) for i in range(0, len(primes), 256)]
    while len(level) > 1:
        level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0]


@pytest.fixture(scope="module")
def prime_product():
    return _prime_product(10**6)


def _last_fn(d, n):
    return abs(compute_fn(build_params(d), n).F_n)


def _assert_smooth_part(n, bound, product):
    """gcd(n, prod Q_j mod n) equals gcd(n, P), and the primes <= bound
    that trial_factor reports multiply to it."""
    g = math.gcd(n, product)
    assert trial_oracle._smooth_gcd(n, bound) == g, n.bit_length()
    factors, _ = trial_factor(n, bound)
    assert math.prod(p for p in factors if p <= bound) == g, n.bit_length()


class TestTrialFactorBarrett:
    """The product-tree route with Barrett reduction against gcd(n, P),
    with P formed in full as the oracle."""

    @pytest.mark.parametrize("d, n", [(2, 12), (3, 9), (9, 4)])  # 88, 141, 61 kbit
    def test_critical_orbit_integers(self, prime_product, d, n):
        _assert_smooth_part(_last_fn(d, n), 10**6, prime_product)

    def test_small_after_large(self, prime_product):
        # the cached top level raised for a 141 kbit n is wider than the
        # small n that follow, so each node is reduced mod n first
        trial_factor(_last_fn(3, 9), 10**6)
        widest = max(q.bit_length() for q in trial_oracle._product_tree_top(10**6)[0])
        smalls = [2, 3, 2 * 3 * 5 * 7, 999983 * 1000003, _last_fn(2, 5), 2**89 - 1]
        assert widest > max(n.bit_length() for n in smalls)
        for n in smalls:
            _assert_smooth_part(n, 10**6, prime_product)
            assert trial_factor(n, 10**6) == plain_trial_factor(n, 10**6), n

    def test_prime_product_itself(self, prime_product):
        for n in (prime_product, prime_product * 1000003):
            assert trial_oracle._smooth_gcd(n, 10**6) == prime_product

    def test_below_two_to_the_64(self, prime_product):
        rng = random.Random(64)
        inputs = [2**64 - 59, 3 * 2**62 - 1, 2**32 + 15, 999983**2, 2 * 999983 * 1000003]
        inputs += [rng.getrandbits(64) | 1 << 63 for _ in range(20)]
        for n in inputs:
            _assert_smooth_part(n, 10**6, prime_product)
            assert trial_factor(n, 10**6) == plain_trial_factor(n, 10**6), n

    def test_reciprocal(self):
        # floor(4^k / n) by Newton's iteration against one long division,
        # on both sides of the cut-off where the iteration takes over
        rng = random.Random(2)
        cut = trial_oracle._RECIPROCAL_DIRECT_BITS
        for bits in (1, 2, 64, cut - 1, cut, cut + 1, 2 * cut + 3, 50_000):
            values = [1 << (bits - 1), (1 << bits) - 1, (1 << (bits - 1)) + 1]
            values += [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(3)]
            for n in values:
                assert trial_oracle._reciprocal(n) == (1 << 2 * n.bit_length()) // n, bits


class TestDecimalHelpers:
    """bit_length and residue on integral Decimals, which the certifier
    reads only through them, against int."""

    @pytest.mark.parametrize("k", [1, 64, 4096, 10**6])
    def test_bit_length_around_powers_of_two(self, k):
        with decimal.localcontext(EXACT):
            power = Decimal(2) ** k
            cases = [(power - 1, k), (power, k + 1), (power + 1, k + 1)]
            cases += [(-x, bits) for x, bits in cases]
        for x, bits in cases:
            assert bit_length(x) == bits, (k, bits)

    def test_bit_length_equals_int(self):
        rng = random.Random(11)
        values = [0, 1, -1, 2, 3, 10**40, -(10**40), 10**40 - 1, 2**133 - 1]
        values += [rng.getrandbits(bits) * rng.choice((1, -1)) for bits in range(1, 3000, 37)]
        for n in values:
            assert bit_length(Decimal(n)) == bit_length(n) == n.bit_length(), n

    def test_residue_floor_convention(self):
        # Decimal's % truncates toward zero; residue follows int's %
        rng = random.Random(13)
        values = [0, 1, -1, -7547704993, 7547704993, 10**50 + 3, -(10**50 + 3)]
        values += [rng.randrange(-(2**3000), 2**3000) for _ in range(40)]
        for n in values:
            for k in (1, -1, 2, 5, -5, 97, 2**64 + 13, -(2**64 + 13), 171397860):
                assert residue(Decimal(n), k) == residue(n, k) == n % k, (n, k)

    def test_residue_of_a_huge_value(self):
        with decimal.localcontext(EXACT):
            n = -(Decimal(3) ** 700_000) - 4
        assert residue(n, 3) == (-4) % 3 == 2
        assert residue(n, -3) == (-4) % -3 == -1

    def test_helpers_ignore_the_callers_context(self):
        with decimal.localcontext(EXACT):
            n = -(Decimal(2) ** 5000) - 1
            even = n - 1
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.traps[decimal.Inexact] = True
            assert residue(n, 1009) == (-(2**5000) - 1) % 1009
            assert bit_length(n) == 5001
            assert multiplicity(even, 2) == 1
            assert ctx.prec == 5


class TestDecimalStr:
    def test_leaves_digit_guard_unchanged(self):
        before = sys.get_int_max_str_digits()
        n = 3**126_000  # about 200 kbit, past the default 4300-digit guard
        text = decimal_str(n)
        assert sys.get_int_max_str_digits() == before
        assert int(text[:20]) == n // 10 ** (len(text) - 20)
        assert decimal_str(-n) == "-" + text


@pytest.fixture
def unguarded_str():
    """Lift the int-to-str digit guard for the oracle, restore it after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(before)


def _decimal_str_inputs():
    """0, +-1, +-(2^k +- 1) around the leaf and direct-str cut-offs,
    powers of ten (no exponent notation), and random values from 10^3
    bits to exactly 2^20 bits, ``poly.DEFAULT_BIT_BUDGET``: the budget
    bounds every value a JSON writer formats (``disc --params`` levels,
    ``disc --trinomial`` values, even-d b), and str() is quadratic
    before CPython 3.12, so the largest size dominates."""
    values = [0, 1, -1]
    for k in (127, 128, 129, 2047, 2048, 2049):
        values += [2**k + 1, 2**k - 1, -(2**k + 1), -(2**k - 1)]
    for k in (616, 617, 618, 5000, 40000):
        values += [10**k, 7 * 10**k]
    rng = random.Random(5)
    for bits in (1000, 10**4, 10**5, DEFAULT_BIT_BUDGET):
        values.append(rng.getrandbits(bits) | 1 << (bits - 1))
    return values


class TestDecimalStrOracle:
    """decimal_str against str()."""

    def test_equals_str(self, unguarded_str):
        for n in _decimal_str_inputs():
            text = str(n)
            assert decimal_str(n) == text, n.bit_length()
            if n > 0:
                assert decimal_str(-n) == "-" + text, n.bit_length()

    def test_under_the_smallest_guard(self, unguarded_str):
        n = 3**70_000  # about 111 kbit, 33399 digits
        sys.set_int_max_str_digits(640)
        try:
            text = decimal_str(n)
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(0)
        assert text == str(n)

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from eisenstein_oracle import eisenstein_at
from odoni.construct import build_params
from odoni.poly import (
    BitBudgetExceededError,
    Trinomial,
    critical_orbit,
    _prime_support,
    disc_iterate,
    disc_levels,
    disc_trinomial,
    disc_trinomial_bits,
)
from poly_oracle import Poly, compose, disc_resultant, expand, f_poly, iterate, resultant

X = Poly.x()


def sylvester_resultant(f: Poly, g: Poly) -> Fraction:
    """Independent oracle: determinant of the Sylvester matrix by
    fraction-based Gaussian elimination."""
    m, n = f.degree, g.degree
    assert m >= 1 and n >= 1
    size = m + n
    rows = [[Fraction(0)] * size for _ in range(size)]
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        for j, c in enumerate(fc):
            rows[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(gc):
            rows[n + i][i + j] = c
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    return det


def random_poly(rng, degree, height=20):
    coeffs = [Fraction(rng.randint(-height, height), rng.randint(1, 5)) for _ in range(degree)]
    coeffs.append(Fraction(rng.randint(1, height), rng.randint(1, 5)))
    return Poly(coeffs)


class TestPolyBasics:
    def test_degree_and_trim(self):
        assert Poly((1, 2, 0, 0)).degree == 1
        assert Poly((0,)).degree == -1
        assert Poly((5,)).degree == 0

    def test_arithmetic_and_eval(self):
        f = X * X - X + 1
        assert f(Fraction(2)) == 3
        assert (f * f).degree == 4
        assert f - f == Poly((0,))

    def test_immutability(self):
        with pytest.raises(AttributeError):
            X.coeffs = (1,)

    def test_derivative(self):
        assert (X**3 - 2 * X).derivative() == 3 * X * X - 2
        assert Poly((7,)).derivative().is_zero()


class TestComposeIterate:
    def test_square_example(self):
        f = X * X - X + 1
        assert iterate(f, 2) == X**4 - 2 * X**3 + 2 * X * X - X + 1

    def test_identity(self):
        assert iterate(X * X - X + 1, 0) == X

    def test_compose_example(self):
        assert compose(X * X, X + 1) == X * X + 2 * X + 1

    def test_degree_growth(self):
        f = X**3 - 2 * X
        assert iterate(f, 2).degree == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            iterate(X, -1)


class TestResultant:
    def test_linear_example(self):
        assert resultant(X - 2, X - 3) == -1

    def test_disc_cubic_pinned(self):
        f = X**3 - X * X + 1
        assert disc_resultant(f) == -23
        fp = f.derivative()
        assert sylvester_resultant(f, fp) == resultant(f, fp)

    def test_disc_quadratic(self):
        # b^2 - 4c at b = 1, c = 1
        assert disc_resultant(X * X + X + 1) == -3

    def test_common_root(self):
        assert resultant((X - 1) * (X - 2), (X - 1) * (X + 5)) == 0

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            disc_resultant(Poly((3,)))

    def test_against_sylvester_oracle(self):
        rng = random.Random(42)
        for _ in range(40):
            f = random_poly(rng, rng.randint(1, 6))
            g = random_poly(rng, rng.randint(1, 6))
            assert resultant(f, g) == sylvester_resultant(f, g)

    def test_swap_sign_rule(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_poly(rng, rng.randint(1, 5))
            g = random_poly(rng, rng.randint(1, 5))
            assert resultant(f, g) == (-1) ** (f.degree * g.degree) * resultant(g, f)


class TestTrinomial:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Trinomial(0, 1, 1, 3, 2)
        with pytest.raises(ValueError):
            Trinomial(1, 1, 1, 4, 2)  # gcd(2, 4) != 1
        with pytest.raises(ValueError):
            Trinomial(1, 1, 1, 2, 2)

    def test_pinned_disc(self):
        assert disc_trinomial(Trinomial(1, -1, 1, 3, 2)) == -23

    def test_quadratic(self):
        assert disc_trinomial(Trinomial(1, 0, -1, 2, 1)) == 4  # (x-1)(x+1)

    def test_against_resultant_oracle(self):
        rng = random.Random(11)
        pairs = [(3, 2), (5, 3), (5, 4), (7, 5)]
        for d, m in pairs:
            for _ in range(10):
                b = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                beta = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                t = Trinomial(Fraction(1), -b, -beta, d, m)
                assert disc_trinomial(t) == disc_resultant(expand(t))


class TestTrinomialBits:
    """The bound the CLI checks before it builds a trinomial discriminant."""

    @staticmethod
    def _bits(q: Fraction) -> int:
        return max(q.numerator.bit_length(), q.denominator.bit_length())

    def test_bounds_the_value(self):
        rng = random.Random(13)
        coeffs = [0, 1, -1, 2, 3, 10**9, -(2**70), Fraction(1, 3), Fraction(-7, 1024),
                  Fraction(10**12, 7**9), Fraction(1, 2**65)]
        shapes = [(2, 1), (3, 1), (3, 2), (5, 2), (8, 3), (12, 7), (40, 1), (97, 96)]
        slack = []
        for d, m in shapes:
            for _ in range(25):
                a, b, c = rng.choice(coeffs[1:]), rng.choice(coeffs), rng.choice(coeffs)
                t = Trinomial(a, b, c, d, m)
                bound = disc_trinomial_bits(t)
                assert self._bits(disc_trinomial(t)) <= bound, t
                slack.append(bound - self._bits(disc_trinomial(t)))
        assert min(slack) <= 3

    @pytest.mark.parametrize("d", [2, 3, 101, 5000, 65536])
    def test_close_for_unit_coefficients(self, d):
        # A = B = C = 1: the value is about d log2 d bits, and the bound
        # is within a few percent of it
        t = Trinomial(1, 1, 1, d, 1)
        actual = self._bits(disc_trinomial(t))
        assert actual <= disc_trinomial_bits(t) <= 1.1 * actual + 8

    def test_no_value_is_built(self):
        # a degree whose discriminant has about 6.6e13 bits is bounded
        # from the bit lengths alone
        t = Trinomial(1, Fraction(-3, 7), 5, 10**12 + 1, 10**12)
        assert disc_trinomial_bits(t) > 10**13


def crit_product(d: int, m: int, b, w) -> Fraction:
    """Product of f - w over the nonzero critical points of f = x^d - b*x^m.

    The nonzero critical points are the (d-m) roots of x^(d-m) = m*b/d;
    the product of f(x) - w over them has the closed form

        d^(-d) * [ d^d * (-w)^(d-m) + (-1)^(d-1) * (d-m)^(d-m) * m^m * (-b)^d ],

    which never materializes a root of unity. Requires b != 0 and
    gcd(m, d) = 1 (the coprimality is what collapses the root-of-unity
    sum).
    """
    b = Fraction(b)
    w = Fraction(w)
    if b == 0:
        raise ValueError("crit_product: b must be nonzero")
    if not (d > m >= 1) or math.gcd(m, d) != 1:
        raise ValueError("crit_product: need d > m >= 1 with gcd(m, d) = 1")
    bracket = Fraction(d**d) * (-w) ** (d - m) + Fraction((-1) ** (d - 1)) * (
        d - m
    ) ** (d - m) * m**m * (-b) ** d
    return bracket / Fraction(d**d)


class TestCritProduct:
    def test_single_rational_point(self):
        # d=2, m=1, b=1: critical point 1/2, f(1/2) = -1/4
        assert crit_product(2, 1, 1, 0) == Fraction(-1, 4)

    def test_top_m_example(self):
        # d=4, m=3, b=4/3: eta = (d-1)b/d = 1, f(1) = 1 - 4/3
        assert crit_product(4, 3, Fraction(4, 3), 0) == Fraction(-1, 3)

    def test_rational_point_oracle(self):
        # m = d-1 has the single nonzero critical point eta = (d-1)b/d
        rng = random.Random(3)
        for d in (2, 4, 6, 8):
            m = d - 1
            for _ in range(10):
                b = Fraction(rng.randint(1, 9), rng.randint(1, 5))
                w = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                eta = Fraction(d - 1) * b / d
                direct = eta**d - b * eta**m - w
                assert crit_product(d, m, b, w) == direct

    def test_zero_b_rejected(self):
        with pytest.raises(ValueError):
            crit_product(3, 2, 0, 1)


def _inst(d, m, b, x0):
    return SimpleNamespace(d=d, m=m, b=Fraction(b), x0=Fraction(x0))


def _orbit(inst, depth):
    """The first ``depth`` orbit values as Fractions, checking that each
    pair is (int W_k, S_k = (d*den(b))^(d^k))."""
    out = []
    scale_root = inst.d * Fraction(inst.b).denominator
    for k, (w, scale) in zip(range(1, depth + 1), critical_orbit(inst)):
        assert type(w) is int and scale == scale_root ** (inst.d**k)
        out.append(Fraction(w, scale))
    return out


class TestCriticalOrbit:
    def test_shift_shape_is_the_orbit_of_eta(self):
        # m = d-1: w_k = f^k(eta) with eta = (d-1)b/d
        for d, b in ((2, Fraction(3, 2)), (4, Fraction(-5, 3)), (6, Fraction(7))):
            inst = _inst(d, d - 1, b, 0)
            f = X**d - b * X ** (d - 1)
            eta = Fraction(d - 1) * b / d
            assert _orbit(inst, 3) == [iterate(f, k)(eta) for k in (1, 2, 3)]

    def test_odd_shape_is_the_squared_orbit(self):
        # m = d-2: w_k = f^k(eta)^2; b is chosen so eta^2 = (d-2)b/d is
        # a rational square and f^k(eta) can be evaluated directly
        for d, eta in ((3, Fraction(2)), (5, Fraction(1, 3)), (7, Fraction(-3, 2))):
            b = eta * eta * d / (d - 2)
            inst = _inst(d, d - 2, b, 0)
            f = X**d - b * X ** (d - 2)
            assert _orbit(inst, 3) == [iterate(f, k)(eta) ** 2 for k in (1, 2, 3)]

    @pytest.mark.parametrize(
        "d, m, b",
        [(2, 1, Fraction(-3, 4)), (3, 1, Fraction(-2)), (5, 3, Fraction(6)),
         (5, 4, Fraction(-7, 10)), (7, 5, Fraction(-1, 21))],
    )
    def test_pairs_follow_the_rational_recursion(self, d, m, b):
        # negative and integral b, where eta is irrational or the
        # denominators share factors with d
        w = Fraction(m) * b / d
        expected = []
        for _ in range(3):
            w = w**m * (w - b) ** (d - m)
            expected.append(w)
        assert _orbit(_inst(d, m, b, 0), 3) == expected

    def test_other_shapes_rejected(self):
        with pytest.raises(ValueError):
            next(critical_orbit(_inst(7, 2, 1, 1)))


class TestDiscIterate:
    def test_quadratic_level_one(self):
        # disc(x^2 - x - 1) = 1 + 4 = 5
        assert disc_iterate(_inst(2, 1, 1, 1), 1) == 5

    def test_quadratic_level_two_oracle(self):
        inst = _inst(2, 1, 1, 1)
        f = X * X - X
        assert disc_iterate(inst, 2) == disc_resultant(iterate(f, 2) - 1)

    def test_random_small_instances_oracle(self):
        rng = random.Random(23)
        for d, m in ((2, 1), (3, 1), (3, 2), (4, 3), (5, 3)):
            for _ in range(4):
                b = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                x0 = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                inst = _inst(d, m, b, x0)
                coeffs = [Fraction(0)] * (d + 1)
                coeffs[m] = -b
                coeffs[d] = Fraction(1)
                f = Poly(coeffs)
                for n in (1, 2):
                    expected = disc_resultant(iterate(f, n) - x0)
                    assert disc_iterate(inst, n) == expected, (d, m, n)

    def test_generic_fallback(self):
        # (d, m) outside the two supported shapes, or m = d-2 with d even
        # (f is then even, not odd), but small enough to expand
        inst = _inst(5, 2, Fraction(3, 2), 1)
        f = X**5 - Fraction(3, 2) * X * X
        assert disc_iterate(inst, 1) == disc_resultant(f - 1)
        inst = _inst(4, 2, 3, Fraction(5, 2))
        f = X**4 - 3 * X * X
        for n in (1, 2):
            assert disc_iterate(inst, n) == disc_resultant(iterate(f, n) - Fraction(5, 2))

    def test_unsupported_shape_rejected(self):
        with pytest.raises(ValueError):
            disc_iterate(_inst(7, 2, 1, 1), 3)

    def test_bit_budget(self, golden_even_4):
        with pytest.raises(BitBudgetExceededError):
            disc_iterate(golden_even_4, 3, bit_budget=256)


def _fraction_levels(inst, bit_budget):
    """Oracle: the level recursion on reduced Fractions, each level
    measured by its reduced numerator and denominator."""
    d, m = inst.d, inst.m
    b, x0 = Fraction(inst.b), Fraction(inst.x0)
    a_tilde = Fraction((-1) ** (d * (d - 1) // 2) * d**d)
    disc = Fraction(1)
    for k, (w, scale) in enumerate(critical_orbit(inst)):
        crit = (-1) ** d * x0 ** (m - 1) * (Fraction(w, scale) - x0 ** (d - m))
        disc = a_tilde ** (d**k) * disc**d * crit
        bits = disc.numerator.bit_length() + disc.denominator.bit_length()
        if bits > bit_budget:
            raise BitBudgetExceededError(
                f"disc_levels: {bits} bits at level {k + 1} exceeds budget {bit_budget}"
            )
        yield disc


def _levels(source, depth):
    """Up to ``depth`` levels as Fractions, then the budget message if
    the source raises it."""
    out = []
    try:
        for level in itertools.islice(source, depth):
            out.append(level if isinstance(level, Fraction) else Fraction(*level))
    except BitBudgetExceededError as exc:
        out.append(str(exc))
    return out


class TestDiscPairs:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_pairs_follow_the_fraction_recursion(self, d):
        # d = 8 stops at level 3: its level 4 has 3.4 Mbit numerators,
        # which take the Fraction oracle over 10 s
        depth = 3 if d == 8 else 4
        inst = build_params(d)
        pairs = list(itertools.islice(disc_levels(inst, 2**30), depth))
        assert all(type(num) is int and type(den) is int and den > 0 for num, den in pairs)
        assert [Fraction(num, den) for num, den in pairs] == list(
            itertools.islice(_fraction_levels(inst, 2**30), depth)
        )

    def test_resultant_fallback_pairs(self):
        inst = _inst(4, 2, 3, Fraction(5, 2))
        f = X**4 - 3 * X * X
        pairs = list(itertools.islice(disc_levels(inst), 2))
        for n, (num, den) in enumerate(pairs, start=1):
            assert type(num) is int and type(den) is int and den > 0
            assert Fraction(num, den) == disc_resultant(iterate(f, n) - Fraction(5, 2))

    @pytest.mark.parametrize(
        "d, m, b, x0",
        [(2, 0, Fraction(-3, 2), Fraction(5, 7)), (3, 0, Fraction(7, 6), Fraction(-1, 4)),
         (4, 2, Fraction(-2, 9), Fraction(3, 5)), (5, 1, Fraction(4, 3), Fraction(2)),
         (5, 2, Fraction(3, 2), Fraction(-7, 2)), (6, 3, Fraction(1, 10), Fraction(3, 8))],
    )
    def test_fallback_levels_until_the_cap(self, d, m, b, x0):
        # the integer-list route against the expanded Fraction resultant
        # at every level with d^k <= 32, then the named error
        inst = _inst(d, m, b, x0)
        f = f_poly(inst)
        levels = disc_levels(inst)
        k = 1
        while d**k <= 32:
            expected = disc_resultant(iterate(f, k) - x0)
            assert next(levels) == (expected.numerator, expected.denominator), k
            k += 1
        with pytest.raises(ValueError, match=f"past level {k - 1}"):
            next(levels)

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 9])
    def test_budget_trip_matches_reduced_size(self, d):
        # budgets at each level's reduced size and one bit below it: the
        # unreduced pair is over both, so it is measured reduced, then
        # yielded or tripped exactly where the reduced Fractions would be
        inst = build_params(d)
        for level in itertools.islice(_fraction_levels(inst, 2**30), 3):
            reduced = level.numerator.bit_length() + level.denominator.bit_length()
            for budget in (reduced, reduced - 1):
                assert _levels(disc_levels(inst, budget), 6) == _levels(
                    _fraction_levels(inst, budget), 6
                ), budget

    def test_budget_trip_without_denominator_primes(self):
        # den(b) has two prime factors above the trial bound whose product
        # is past the deterministic primality range, so the reduced size
        # comes from one gcd of the pair
        inst = _inst(2, 1, Fraction(3, (2**61 - 1) * (2**89 - 1)), Fraction(5, 7))
        assert _prime_support(2 * (2**61 - 1) * (2**89 - 1) * 7) is None
        assert _prime_support(2 * (2**61 - 1) * 7) == [2, 7, 2**61 - 1]
        for budget in (400, 1000, 3000, 10**4):
            assert _levels(disc_levels(inst, budget), 8) == _levels(
                _fraction_levels(inst, budget), 8
            )

    def test_zero_discriminant_stays_small(self):
        # x0 = -b^2/4 makes f - x0 = (x - 1)^2 for b = 2, so every level
        # has discriminant 0, kept as the pair (0, 1)
        inst = _inst(2, 1, 2, -1)
        assert list(itertools.islice(disc_levels(inst, 10), 6)) == [(0, 1)] * 6

    def test_zero_level_stops_the_orbit(self):
        # x0 = 0 zeroes level 1; the critical orbit grows 4-fold per
        # level, so stepping it on to level 40 would never finish
        inst = _inst(4, 3, -42, 0)
        assert next(itertools.islice(disc_levels(inst), 39, None)) == (0, 1)


class TestEisenstein:
    def test_examples(self):
        assert eisenstein_at(X * X - 2, 2)
        assert not eisenstein_at(X * X - 4, 2)

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            eisenstein_at(2 * X * X - 2, 2)

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            eisenstein_at(X * X + Fraction(1, 2), 2)

    def test_zero_constant_term_fails(self):
        assert not eisenstein_at(X * X - 2 * X, 2)

    def test_golden_iterates(self, golden_even_2, golden_odd_3):
        for inst in (golden_even_2, golden_odd_3):
            f = f_poly(inst)
            for n in (1, 2, 3):
                assert eisenstein_at(iterate(f, n) - inst.x0, inst.p1)


class TestEisensteinImpliesIrreducible:
    def test_no_small_height_factorization(self):
        # exhaustive monic integer factor search of bounded height for a
        # few Eisenstein polynomials of degree <= 6
        import itertools

        candidates = [
            (X * X - 2, 2),
            (X**3 + 2 * X + 2, 2),
            (X**5 + 6 * X**4 + 3, 3),
            (X**6 + 10 * X**3 + 5, 5),
        ]
        height = 8

        def divides(g, f):
            # long division by the monic g; True iff remainder vanishes
            fc = list(f.coeffs)
            gc = list(g.coeffs)
            dg = len(gc) - 1
            while len(fc) - 1 >= dg:
                lead = fc[-1]
                shift = len(fc) - 1 - dg
                for i in range(dg + 1):
                    fc[shift + i] -= lead * gc[i]
                fc.pop()
                while len(fc) > 1 and fc[-1] == 0:
                    fc.pop()
            return all(c == 0 for c in fc)

        for f, prime in candidates:
            assert eisenstein_at(f, prime)
            for deg in range(1, f.degree // 2 + 1):
                for tail in itertools.product(range(-height, height + 1), repeat=deg):
                    g = Poly(list(tail) + [1])
                    assert not divides(g, f), (f, g)


class TestCritProductDiscRelation:
    def test_odd_shape_critical_pair_oracle(self):
        # m = d-2: the two nonzero critical points are +-eta with
        # eta^2 = (d-2)b/d, and f is odd, so the product telescopes to
        # w^2 - f(eta)^2 with f(eta)^2 = eta^2^(d-2) (eta^2 - b)^2
        rng = random.Random(41)
        for d in (5, 7, 9):
            m = d - 2
            for _ in range(8):
                b = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                w = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                eta2 = Fraction(d - 2) * b / d
                f_eta_sq = eta2 ** (d - 2) * (eta2 - b) ** 2
                assert crit_product(d, m, b, w) == w * w - f_eta_sq

    def test_ties_disc_to_critical_product(self):
        # disc(x^d - b x^m - w) factors as
        # (-1)^(d(d-1)/2) d^d (-w)^(m-1) * crit_product(d, m, b, w):
        # the zero critical point contributes (-w)^(m-1), the nonzero
        # ones the closed-form product
        rng = random.Random(43)
        for d, m in ((3, 2), (5, 3), (5, 4), (7, 5), (8, 7)):
            for _ in range(5):
                b = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                w = Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 4))
                lhs = disc_trinomial(Trinomial(1, -b, -w, d, m))
                scale = Fraction((-1) ** (d * (d - 1) // 2) * d**d)
                rhs = scale * (-w) ** (m - 1) * crit_product(d, m, b, w)
                assert lhs == rhs

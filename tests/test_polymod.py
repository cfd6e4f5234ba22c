import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from factor_oracle import PolyModP, derivative, factor_mod_p, pth_root
from odoni.construct import build_params
from odoni.polymod import (
    _mul_mod,
    _PackedRing,
    _pow_mod,
    cycle_type_mod_p,
    iterates_minus_x0,
)
from poly_oracle import Poly, f_poly, iterate


def poly(coeffs, p):
    return PolyModP(coeffs, p)


def is_irreducible_by_frobenius(h: PolyModP) -> bool:
    """Independent distinct-degree certificate: h of degree k is
    irreducible iff x^(p^k) = x mod h and gcd(x^(p^j) - x, h) is trivial
    for every j <= k/2."""
    p, k = h.p, h.degree
    x = PolyModP([0, 1], p)
    frob = x
    for j in range(1, k // 2 + 1):
        frob = frob.pow_mod(p, h)
        if h.gcd(frob - x).degree > 0:
            return False
    full = x.pow_mod(p**k, h)
    return ((full - x) % h).is_zero()


def product_with_multiplicity(factors, p):
    acc = PolyModP([1], p)
    for q, e in factors:
        for _ in range(e):
            acc = acc * q
    return acc


class TestPolyModPArithmetic:
    def test_divmod_roundtrip(self):
        rng = random.Random(5)
        p = 13
        for _ in range(30):
            a = poly([rng.randrange(p) for _ in range(7)] + [1], p)
            b = poly([rng.randrange(p) for _ in range(3)] + [1], p)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_gcd_is_monic_common_divisor(self):
        p = 7
        a = poly([6, 1], p)  # x + 6 = x - 1
        b = poly([1, 1], p)
        f = a * b
        g = a * poly([2, 1], p)
        assert f.gcd(g) == a

    def test_pth_root(self):
        p = 5
        f = poly([1, 1], p)
        fifth = f * f * f * f * f
        assert derivative(fifth).is_zero()
        assert pth_root(fifth) == f

    def test_rational_reduction(self):
        f = PolyModP.from_rational_coeffs([Fraction(1, 2), Fraction(3)], 5)
        assert f.coeffs == (3, 3)  # 1/2 = 3 mod 5
        with pytest.raises(ValueError):
            PolyModP.from_rational_coeffs([Fraction(1, 5)], 5)


class TestFactorModP:
    def test_quartic_example(self):
        # x^4 + 1 mod 5 = (x^2 + 2)(x^2 + 3)
        factors = factor_mod_p(poly([1, 0, 0, 0, 1], 5))
        assert [(list(q.coeffs), e) for q, e in factors] == [
            ([2, 0, 1], 1),
            ([3, 0, 1], 1),
        ]

    def test_difference_of_squares(self):
        # x^2 - 1 mod 7 = (x - 1)(x + 1)
        factors = factor_mod_p(poly([6, 0, 1], 7))
        assert [(list(q.coeffs), e) for q, e in factors] == [([1, 1], 1), ([6, 1], 1)]

    def test_multiplicities_and_unit(self):
        p = 5
        lin = poly([1, 1], p)
        f = 3 * lin * lin * poly([2, 0, 1], p)
        factors = factor_mod_p(f)
        assert [(list(q.coeffs), e) for q, e in factors] == [([1, 1], 2), ([2, 0, 1], 1)]
        reassembled = product_with_multiplicity(factors, p) * f.lc
        assert reassembled == f

    def test_pth_power_input(self):
        p = 5
        f = poly([1, 1], p)
        fifth = f * f * f * f * f
        factors = factor_mod_p(fifth)
        assert [(list(q.coeffs), e) for q, e in factors] == [([1, 1], 5)]

    def test_rejects_p2_and_constants(self):
        with pytest.raises(ValueError):
            factor_mod_p(poly([1, 1], 2))
        with pytest.raises(ValueError):
            factor_mod_p(poly([3], 7))

    def test_random_roundtrip_mod_101(self):
        rng = random.Random(17)
        p = 101
        for _ in range(15):
            f = poly([rng.randrange(p) for _ in range(rng.randint(1, 9))] + [rng.randint(1, p - 1)], p)
            factors = factor_mod_p(f)
            assert sum(q.degree * e for q, e in factors) == f.degree
            for q, _ in factors:
                assert q.is_monic()
                assert is_irreducible_by_frobenius(q)
            assert product_with_multiplicity(factors, p) * f.lc == f

    def test_determinism(self):
        p = 31
        f = poly([7, 3, 0, 1, 0, 0, 1, 2], p)
        factors = factor_mod_p(f)
        assert factors == factor_mod_p(f)
        assert sum(q.degree * e for q, e in factors) == f.degree


class TestCycleTypeModP:
    def test_quartic_example(self):
        # x^4 + 1 mod 5 = (x^2 + 2)(x^2 + 3)
        assert cycle_type_mod_p([1, 0, 0, 0, 1], 5) == (2, 2)

    def test_irreducible_and_split(self):
        assert cycle_type_mod_p([2, 0, 1], 5) == (2,)  # x^2 + 2 has no root mod 5
        assert cycle_type_mod_p([6, 0, 1], 7) == (1, 1)
        assert cycle_type_mod_p([3, 3], 7) == (1,)  # the leading unit is stripped

    def test_unreduced_integer_coefficients(self):
        # 15 x^2 - 20 = 15 (x^2 + 2) mod 7: the same pattern as x^2 + 2
        assert cycle_type_mod_p([-20, 0, 15], 7) == cycle_type_mod_p([2, 0, 1], 7) == (2,)

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            cycle_type_mod_p([3], 7)

    def test_rejects_non_unit_leading_coefficient(self):
        with pytest.raises(ValueError, match="leading coefficient"):
            cycle_type_mod_p([1, 1, 14], 7)

    def test_matches_oracle_on_random_squarefree(self):
        # p below the degree (x^p needs no squaring) and long exponents;
        # leading coefficients that are units other than 1, and integer
        # coefficients left unreduced
        rng = random.Random(23)
        for p in (3, 5, 7, 101, 10007, 65537):
            checked = 0
            while checked < 20:
                degree = rng.randint(1, 24)
                lc = rng.randrange(1, p) + p * rng.randint(0, 3)
                coeffs = [rng.randrange(-5 * p, 5 * p) for _ in range(degree)] + [lc]
                factors = factor_mod_p(PolyModP(coeffs, p))
                if any(e > 1 for _, e in factors):
                    continue
                expected = sorted((q.degree for q, _ in factors), reverse=True)
                assert cycle_type_mod_p(coeffs, p) == tuple(expected), (coeffs, p)
                checked += 1

    def test_many_factors_of_each_degree(self):
        # products of distinct irreducibles of degrees 1..4, so every
        # DDF step divides something out of v while the powers stay mod u
        rng = random.Random(37)
        p = 7
        for _ in range(10):
            factors: set[tuple[int, ...]] = set()
            while len(factors) < 6:
                k = rng.randint(1, 4)
                q = PolyModP([rng.randrange(p) for _ in range(k)] + [1], p)
                if is_irreducible_by_frobenius(q):
                    factors.add(q.coeffs)
            f = product_with_multiplicity([(PolyModP(q, p), 1) for q in factors], p)
            f = f * PolyModP([rng.randrange(1, p)], p)
            expected = sorted((len(q) - 1 for q in factors), reverse=True)
            assert cycle_type_mod_p(list(f.coeffs), p) == tuple(expected)


class TestXPowMod:
    @pytest.mark.parametrize("p", [3, 5, 101, 10007, 65537])
    def test_matches_square_and_multiply(self, p):
        # the left-to-right packed powering against PolyModP.pow_mod's
        # right-to-left square and multiply, for moduli of degree 1..20,
        # monic or not
        rng = random.Random(41 + p)
        for degree in range(1, 21):
            v = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
            ring = _PackedRing(v, p)
            for e in (0, 1, 2, p, p * p, rng.randrange(10**12)):
                got = ring.coeffs(ring.x_pow(e))
                assert len(got) == degree and all(0 <= c < p for c in got)
                assert PolyModP(got, p) == PolyModP([0, 1], p).pow_mod(e, PolyModP(v, p)), (e, v)


class TestListKernel:
    def test_products_match_polymodp(self):
        rng = random.Random(29)
        p = 101
        for _ in range(30):
            a = [rng.randrange(p) for _ in range(rng.randint(1, 8))]
            b = [rng.randrange(p) for _ in range(rng.randint(1, 8))]
            product = PolyModP(a, p) * PolyModP(b, p)
            plain = _mul_mod(a, b, p)
            assert all(0 <= c < p for c in plain)  # reduced, as the Eisenstein check reads it
            assert PolyModP(plain, p) == product

    def test_powers_match_polymodp(self):
        rng = random.Random(31)
        p = 97
        for _ in range(20):
            g = [rng.randrange(p) for _ in range(rng.randint(1, 5))]
            e = rng.randrange(40)
            repeated = PolyModP([1], p)
            for _ in range(e):
                repeated = repeated * PolyModP(g, p)
            assert PolyModP(_pow_mod(g, e, p), p) == repeated


def _check_iterates(inst, depth, moduli=()):
    """H_k / lc(H_k) equals the oracle's f^k - x0 for k <= depth, and
    the modular form equals the integer form reduced."""
    f = f_poly(inst)
    levels = list(itertools.islice(iterates_minus_x0(inst), depth))
    for k, h in enumerate(levels, start=1):
        assert all(type(c) is int for c in h)
        assert len(h) == inst.d**k + 1 and h[-1] != 0
        assert Poly(Fraction(c, h[-1]) for c in h) == iterate(f, k) - inst.x0, k
    for modulus in moduli:
        reduced = list(itertools.islice(iterates_minus_x0(inst, modulus), depth))
        assert reduced == [[c % modulus for c in h] for h in levels], modulus


class TestIteratesMinusX0:
    """The one composition of f^k - x0 against Horner composition over Q."""

    @pytest.mark.parametrize("d", range(2, 11))
    def test_constructed_instances(self, d):
        inst = build_params(d)
        _check_iterates(inst, 3 if d <= 4 else 2, moduli=(inst.p1**2, 2**61 - 1, 10**6))

    def test_random_instances(self):
        # any 0 <= m < d, gcd(m, d) > 1 included, with b and x0 carrying
        # denominators (so dropping den(b) or den(x0) shows) and zero b
        rng = random.Random(53)
        shapes_with_common_factor = 0
        for _ in range(60):
            d = rng.randint(2, 6)
            m = rng.randrange(d)
            shapes_with_common_factor += math.gcd(m, d) > 1
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            x0 = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            inst = SimpleNamespace(d=d, m=m, b=b, x0=x0)
            depth = 3 if d**3 <= 64 else 2
            _check_iterates(inst, depth, moduli=(rng.choice([4, 9, 25, 49]), rng.randint(2, 10**4)))
        assert shapes_with_common_factor >= 10

    def test_leading_coefficient(self):
        # lc(H_k) = den(x0) * den(b)^((d^k - 1)/(d - 1))
        inst = SimpleNamespace(d=3, m=1, b=Fraction(5, 4), x0=Fraction(-2, 9))
        for k, h in enumerate(itertools.islice(iterates_minus_x0(inst), 3), start=1):
            assert h[-1] == 9 * 4 ** ((3**k - 1) // 2)

    @pytest.mark.parametrize("d, m", [(3, 3), (3, 5), (2, -1)])
    def test_rejects_m_outside_range(self, d, m):
        inst = SimpleNamespace(d=d, m=m, b=Fraction(1), x0=Fraction(1))
        with pytest.raises(ValueError, match="0 <= m < d"):
            next(iterates_minus_x0(inst))

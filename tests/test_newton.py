import random
from fractions import Fraction

import pytest

from odoni.certify import check_condition2
from odoni.newton import Segment, newton_polygon, tower_from_valuations
from newton_helpers import predict_two_segments
from poly_oracle import Poly

X = Poly.x()


class TestNewtonPolygon:
    def test_eisenstein_shape(self):
        polygon = newton_polygon((X * X - 5).coeffs, 5)
        assert polygon.segments == (Segment(Fraction(-1, 2), 2),)
        assert polygon.vertices == ((0, 1), (2, 0))

    def test_three_point_hull(self):
        # x^5 - p^-2 x^3 - p^-2: points (0,-2), (3,-2), (5,0)
        p = 7
        f = X**5 - Fraction(1, p * p) * X**3 - Fraction(1, p * p)
        polygon = newton_polygon(f.coeffs, p)
        assert polygon.segments == (Segment(Fraction(0), 3), Segment(Fraction(1), 2))
        assert polygon.vertices == ((0, -2), (3, -2), (5, 0))

    def test_unit_coefficients(self):
        polygon = newton_polygon((X**3 - X * X + 1).coeffs, 23)
        assert polygon.segments == (Segment(Fraction(0), 3),)
        assert polygon.vertices == ((0, 0), (3, 0))

    def test_zero_coefficients_skipped(self):
        # x^3 - p x: no constant term, hull spans indices 1..3
        polygon = newton_polygon((X**3 - 3 * X).coeffs, 3)
        assert polygon.vertices == ((1, 1), (3, 0))
        assert sum(seg.length for seg in polygon.segments) == 2

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            newton_polygon(Poly((4,)).coeffs, 5)

    def test_hull_supports_all_points(self):
        rng = random.Random(2)
        p = 5
        for _ in range(30):
            coeffs = [
                Fraction(rng.randint(1, 20) * p ** rng.randint(0, 3), p ** rng.randint(0, 3))
                for _ in range(rng.randint(2, 7))
            ]
            f = Poly(coeffs + [1])
            polygon = newton_polygon(f.coeffs, p)
            from odoni.arith import INFINITY, val

            points = [
                (i, val(c, p)) for i, c in enumerate(f.coeffs) if val(c, p) is not INFINITY
            ]
            for (x1, y1), (x2, y2) in zip(polygon.vertices, polygon.vertices[1:]):
                for (px, py) in points:
                    if x1 <= px <= x2:
                        # on or above the segment line
                        assert (py - y1) * (x2 - x1) >= (y2 - y1) * (px - x1)
            assert set(polygon.vertices) <= set(points)
            slopes = [seg.slope for seg in polygon.segments]
            assert slopes == sorted(slopes)
            assert len(set(slopes)) == len(slopes)
            lowest = min(i for i, _ in points)
            assert sum(seg.length for seg in polygon.segments) == f.degree - lowest


class TestPredictTwoSegments:
    def test_examples(self):
        assert predict_two_segments(5, 3, -2, 2) == (
            Segment(Fraction(-2, 3), 3),
            Segment(Fraction(1), 2),
        )
        assert predict_two_segments(2, 1, -1, 1) == (
            Segment(Fraction(-1), 1),
            Segment(Fraction(1), 1),
        )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            predict_two_segments(5, 3, 1, 1)  # v_b >= 0
        with pytest.raises(ValueError):
            predict_two_segments(5, 3, -3, 1)  # (d-m) does not divide v_b
        with pytest.raises(ValueError):
            predict_two_segments(5, 3, -2, 0)  # v(beta/b) <= 0

    def test_fifty_constructed_witnesses(self):
        rng = random.Random(9)
        p = 5
        built = 0
        while built < 50:
            d = rng.randint(2, 7)
            m = rng.randint(1, d - 1)
            v_b = -(d - m) * rng.randint(1, 3)
            v = rng.randint(1, 4)
            # witness: b = u * p^v_b, beta = b * p^v * u'
            u, u2 = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
            if u % p == 0 or u2 % p == 0:
                continue
            b = Fraction(u) * Fraction(p) ** v_b
            beta = b * p**v * u2
            f = X**d - b * X**m - beta
            polygon = newton_polygon(f.coeffs, p)
            assert polygon.segments == predict_two_segments(d, m, v_b, v)
            built += 1


class TestRamificationTower:
    def test_trivial_m_one(self):
        tower = tower_from_valuations(1, -1, 0, 3)
        assert [lvl.ram_index for lvl in tower] == [1, 1, 1]
        assert [lvl.valuation for lvl in tower] == [1, 2, 3]

    def test_slope_recursion_example(self):
        tower = tower_from_valuations(3, -2, 0, 2)
        assert [lvl.valuation for lvl in tower] == [
            Fraction(2, 3),
            Fraction(8, 9),
        ]
        assert [lvl.scaled for lvl in tower] == [2, 8]

    def test_negative_base_valuation_example(self):
        tower = tower_from_valuations(5, -2, -1, 1)
        assert tower[0].valuation == Fraction(1, 5)
        assert tower[0].scaled == 1

    def test_hypotheses_are_the_callers(self):
        # condition (2) is decided in certify.check_condition2 alone, and
        # the tower takes no d: a v(b) = -3 that d - m = 2 does not divide
        # (d = 5, m = 3) is not re-checked here, nor is d = m = 4
        tower = tower_from_valuations(3, -3, -1, 2)
        assert [lvl.scaled for lvl in tower] == [2, 11]
        assert tower_from_valuations(4, -1, 0, 1)[0].scaled == 1

    def test_instance_tower_depth_four(self, golden_even_4, golden_odd_5):
        import math

        for inst in (golden_even_4, golden_odd_5):
            tower = check_condition2(inst, 4).tower
            for level in tower:
                assert level.scaled > 0
                assert math.gcd(level.scaled, inst.m) == 1

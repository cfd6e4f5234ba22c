"""Newton polygons and the valuation tower of iterated preimages.

The polygon of a polynomial at a prime is the lower convex hull of the
points (i, v_p(a_i)); its segment slopes are the negatives of the root
valuations, with multiplicities given by the segment lengths. For
f = x^d - b*x^m with v(b) < min(v(x0), 0), (d-m) | v(b) and
gcd(m, v(x0/b)) = 1, the polygon of f - beta splits into exactly two
segments, and iterating the short-segment slope predicts a ramification
index of m^k at level k together with a level valuation N_k / m^k whose
numerator stays coprime to m. The tower here is computed purely on
valuations; no algebraic numbers are ever represented.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .arith import is_prime, multiplicity


@dataclass(frozen=True)
class Segment:
    slope: Fraction
    length: int


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of coefficient valuations.

    vertices are the hull's corner points only (collinear interior
    points are absorbed into their segment); slopes strictly increase
    left to right and lengths sum to the index span of the hull.
    """

    vertices: tuple[tuple[int, int], ...]
    segments: tuple[Segment, ...]


def _lower_hull(points: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    hull: list[tuple[int, int]] = []
    for pt in points:  # points already sorted by index
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop while the middle point is on or above the chord
            if (x2 - x1) * (pt[1] - y1) <= (pt[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(coeffs: Sequence[Fraction], p: int) -> NewtonPolygon:
    """Newton polygon, with respect to the prime p, of the polynomial
    with ascending coefficients ``coeffs`` (ints or Fractions).

    Zero coefficients (valuation +infinity) are simply omitted from the
    point set; a constant polynomial has no polygon and is rejected. p
    is tested for primality once, before any valuation, so a large p
    costs one test whatever the number of coefficients.
    """
    if not any(coeffs[1:]):
        raise ValueError("newton_polygon: polynomial must be non-constant")
    if not is_prime(p):
        raise ValueError(f"newton_polygon: modulus {p} is not prime")
    points = []
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if c:
            points.append((i, multiplicity(c.numerator, p) - multiplicity(c.denominator, p)))
    hull = _lower_hull(points)
    segments = tuple(
        Segment(Fraction(y2 - y1, x2 - x1), x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    )
    return NewtonPolygon(tuple(hull), segments)


@dataclass(frozen=True)
class TowerLevel:
    level: int
    valuation: Fraction  # predicted valuation of a level-k preimage
    ram_index: int  # m^k
    scaled: int  # m^k * valuation, a positive integer coprime to m


def tower_from_valuations(d: int, m: int, v_b: int, v_x0: int, n: int) -> tuple[TowerLevel, ...]:
    """The levels 1..n of the predicted ramification tower, iterating
    the short-segment slope: v_k = (v_(k-1) - v(b)) / m.

    The hypotheses of condition (2) are decided by the caller
    (``certify.check_condition2``), never here. What this asserts, at
    every level, is that m^k * v_k is a positive integer coprime to m;
    a level where that fails, or an m = 0 that leaves v_k undefined,
    raises ValueError.
    """
    if m == 0:
        raise ValueError("tower: v_k = (v_(k-1) - v(b)) / m is undefined at m = 0")
    levels = []
    v = Fraction(v_x0)
    for k in range(1, n + 1):
        v = (v - v_b) / m
        scaled = v * m**k
        if scaled.denominator != 1 or scaled <= 0:
            raise ValueError(f"tower: m^{k} * v_{k} = {scaled} is not a positive integer")
        scaled = int(scaled)
        if gcd(scaled, m) != 1:
            raise ValueError(f"tower: m^{k} * v_{k} = {scaled} shares a factor with m")
        levels.append(TowerLevel(k, v, m**k, scaled))
    return tuple(levels)

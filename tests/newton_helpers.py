"""The two-segment Newton polygon predicted from valuations alone, which
the tests compare with ``odoni.newton.newton_polygon`` on witness
polynomials; the program itself reads the tower off
``tower_from_valuations``.
"""

from __future__ import annotations

from fractions import Fraction

from odoni.newton import Segment


def predict_two_segments(d: int, m: int, v_b: int, v_beta_over_b) -> tuple[Segment, Segment]:
    """The two-segment polygon of x^d - b*x^m - beta from valuations alone.

    Requires v(b) < 0 with (d-m) | v(b) and v(beta/b) > 0; then the hull
    is a segment of length m and slope -v(beta/b)/m followed by one of
    length d-m and slope -v(b)/(d-m). For integral inputs this matches
    newton_polygon on any witness polynomial with those valuations.
    """
    v = Fraction(v_beta_over_b)
    if v_b >= 0:
        raise ValueError("predict_two_segments: need v(b) < 0")
    if v_b % (d - m) != 0:
        raise ValueError("predict_two_segments: need (d-m) | v(b)")
    if v <= 0:
        raise ValueError("predict_two_segments: need v(beta/b) > 0")
    return (
        Segment(-v / m, m),
        Segment(Fraction(-v_b, d - m), d - m),
    )

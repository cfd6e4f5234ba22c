"""The Eisenstein test over Q: the independent oracle that the
certifier's Z/p1^2 check is compared against."""

from __future__ import annotations

from odoni.arith import INFINITY, val
from poly_oracle import Poly


def eisenstein_at(f: Poly, p: int) -> bool:
    """Eisenstein test at p for a monic polynomial with p-integral coefficients.

    True iff every non-leading coefficient has valuation >= 1 and the
    constant term has valuation exactly 1. Non-monic or non-p-integral
    input is rejected (that is a caller error, not a False).
    """
    if f.degree < 1 or f.lc != 1:
        raise ValueError("eisenstein_at: polynomial must be monic non-constant")
    vals = [val(c, p) for c in f.coeffs[:-1]]
    if any(v is not INFINITY and v < 0 for v in vals):
        raise ValueError("eisenstein_at: coefficients must be p-integral")
    if not all(v is INFINITY or v >= 1 for v in vals):
        return False
    return vals[0] == 1

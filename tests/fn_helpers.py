"""Test-side helpers around the certifier's F_n sequence and the
discriminant pairs of ``odoni.poly.disc_levels``: F_n at a single
depth, and the q-adic valuation of an unreduced pair (N, D)."""

from __future__ import annotations

from odoni.arith import INFINITY, Valuation, val
from odoni.certify import FnValue, fn_sequence


def compute_fn(inst, n: int) -> FnValue:
    """F_n, M_n, e_n at a single depth (recomputed from depth 1)."""
    value = None
    for value in fn_sequence(inst, n):
        pass
    assert value is not None
    return value


def pair_val(pair: tuple[int, int], q: int) -> Valuation:
    """v_q(N / D) of an unreduced pair (N, D) with D != 0."""
    num, den = pair
    if num == 0:
        return INFINITY
    return val(num, q) - val(den, q)

"""Test-side helpers around the certifier's F_n sequence and the
discriminant pairs of ``odoni.poly.disc_levels``: the int closed forms
of F_n and M_n (the oracle of ``odoni.certify.fn_sequence``, which
computes them in Decimal), F_n at a single depth, the witness search
at a single depth, and the q-adic valuation of an unreduced pair
(N, D)."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from odoni.arith import INFINITY, RelationError, Valuation, val
from odoni.certify import (
    EXHIBIT_PRIME_BOUND,
    ExhibitReport,
    FnValue,
    factor_over,
    fn_sequence,
    orbit_prime_divisors,
    witness_report,
)
from odoni.construct import EVEN_CASE
from odoni.poly import critical_orbit


def fn_sequence_oracle(inst, depth: int) -> Iterator[FnValue]:
    """F_n, M_n, e_n for n = 1..depth as ints, by the closed forms of
    ``fn_sequence`` in int arithmetic, each F_n checked against the int
    critical orbit by the same dual-path identity
    W v - u S = F_n s^(d-m) v (RelationError on a mismatch)."""
    d, m, s, t = inst.d, inst.m, inst.s, inst.t
    even = inst.parity_case == EVEN_CASE
    c = inst.big_d if even else t
    s_shift = s ** (d - m)
    x0_shift = inst.x0 ** (d - m)
    u, v = x0_shift.numerator, x0_shift.denominator
    if (t * c) ** d != inst.b.denominator**d:
        raise RelationError("depth1.dual_path_Fn", "t*c is not den(b)")
    m_n, e_n = (-1 if even else 1), d
    for n, (w, scale) in zip(range(1, depth + 1), critical_orbit(inst)):
        if n > 1:
            if even:
                m_n = m_n ** (d - 1) * (unit * s ** (d * (e_n - 1)) * m_n - tail)
            else:
                m_n = m_n ** (d - 2) * f_rec
            e_n = m * e_n + (d - m)
        if even:
            unit = (d - 1) ** ((d - 1) ** n)
            tail = d ** (d**n) * (t * c) ** (d**n - 1)
            f_rec = s ** (d * e_n - 1) * unit * m_n - tail * c
        else:
            sq_coeff = 4 ** ((d - 2) ** (n - 1)) * (d - 2) ** ((d - 2) ** n) * s ** (2 * e_n - 2)
            f_rec = sq_coeff * m_n * m_n - d ** (d**n) * t ** (2 * d**n - 2)
        if w * v - u * scale != f_rec * s_shift * v:
            raise RelationError(f"depth{n}.dual_path_Fn", "recursion and direct evaluation disagree")
        yield FnValue(n, e_n, m_n, f_rec)


def compute_fn(inst, n: int) -> FnValue:
    """F_n, M_n, e_n at a single depth as ints, from the oracle
    (recomputed from depth 1)."""
    value = None
    for value in fn_sequence_oracle(inst, n):
        pass
    assert value is not None
    return value


def exhibit_at(
    inst, n: int, effort_bound: int = EXHIBIT_PRIME_BOUND, fns: Optional[Sequence] = None
) -> ExhibitReport:
    """The witness search at depth n alone, as ``certify`` makes it
    there: F_n factored by ``factor_over`` and judged by
    ``witness_report``, with F_1, ..., F_n from ``fn_sequence`` unless
    given, and the one list of a new ``orbit_prime_divisors`` search to
    depth n."""
    if fns is None:
        fns = [value.F_n for value in fn_sequence(inst, n)]
    divisors = orbit_prime_divisors(inst, effort_bound, n)
    return witness_report(inst, factor_over(fns[n - 1], divisors, effort_bound), fns[: n - 1])


def pair_val(pair: tuple[int, int], q: int) -> Valuation:
    """v_q(N / D) of an unreduced pair (N, D) with D != 0."""
    num, den = pair
    if num == 0:
        return INFINITY
    return val(num, q) - val(den, q)

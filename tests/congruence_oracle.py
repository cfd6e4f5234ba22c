"""The step-3 congruence on exact integers: the independent oracle that
the certifier's residue evaluation (``certify.congruence_holds``) is
compared against. Every side is formed at full size and reduced only at
the end."""

from __future__ import annotations

from odoni.construct import EVEN_CASE, ODD_CASE_1


def exact_congruence_holds(inst, value) -> bool:
    """Even case: s^(d e_n) (d-1)^((d-1)^n) M_n = (-(d-1)^(d-1) s^(d^2))^(d^(n-1))
    mod d*t*D. Odd case 1: the square term of F_n vanishes mod s and
    F_n = -d^(d^n) t^(2 d^n - 2) mod p1. Odd case 2:
    4^(...) (d-2)^(...) s^(2 e_n) M_n^2 = (4 (d-2)^(d-2) s^(2d))^(d^(n-1))
    mod d*t^2.
    """
    d, s, t = inst.d, inst.s, inst.t
    n, e_n, m_n = value.n, value.e_n, value.M_n
    if inst.parity_case == EVEN_CASE:
        lhs = s ** (d * e_n) * (d - 1) ** ((d - 1) ** n) * m_n
        rhs = (-((d - 1) ** (d - 1)) * s ** (d * d)) ** (d ** (n - 1))
        return (lhs - rhs) % (d * t * inst.big_d) == 0
    square_term = (
        4 ** ((d - 2) ** (n - 1)) * (d - 2) ** ((d - 2) ** n) * s ** (2 * e_n - 2) * m_n * m_n
    )
    if inst.parity_case == ODD_CASE_1:
        reduced = (value.F_n + d ** (d**n) * t ** (2 * d**n - 2)) % inst.p1
        return square_term % s == 0 and reduced == 0
    lhs = square_term * s * s
    rhs = (4 * (d - 2) ** (d - 2) * s ** (2 * d)) ** (d ** (n - 1))
    return (lhs - rhs) % (d * t * t) == 0

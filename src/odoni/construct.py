"""Deterministic construction of certified trinomial instances over Q.

For every degree d >= 2 this module produces a tuple (d, m, b, x0)
together with three witness primes such that f(x) = x^d - b*x^m and the
base point x0 satisfy all hypotheses the certifier checks. Over Q the
unit group is {+-1}, so "every unit is a square mod p" collapses to
p = 1 (mod 4); that specialization, not any new mathematics, is what
makes the prime searches here finite and deterministic.

Even d: m = d-1, x0 = s/t and b = s^d / (t*(s^(d-1) + t^(d-1))) with s
and t manufactured by CRT so the three primes see prescribed
valuations. Odd d: m = d-2 and b = x0^2, with (s, t) a pair of primes
chosen so that either d (case 1) or d-2 (case 2) is a non-residue at
the "unit-square" prime. Every choice is smallest-first, so identical
inputs reproduce identical instances byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    DEFAULT_SEARCH_CAP,
    CapExceededError,
    _rationals,
    crt,
    decimal_str,
    is_prime,
    legendre,
    next_prime_where,
    val,
)
from .poly import DEFAULT_BIT_BUDGET

EVEN_CASE = "even"
ODD_CASE_1 = "odd-case-1"
ODD_CASE_2 = "odd-case-2"


class ConstructError(RuntimeError):
    """A construction postcondition failed; the message names the relation."""


@dataclass(frozen=True)
class IterInstance:
    """A candidate (f, x0) plus witness primes.

    p1 sees v(x0) = 1 and v(b) >= 1; p2 carries the negative-valuation
    hypotheses; p is the unit-square prime used for the nonsquare test
    (p = p2 for even d and odd case 2, p = p1 for odd case 1).
    """

    d: int
    m: int
    s: int
    t: int
    x0: Fraction
    b: Fraction
    p: int
    p1: int
    p2: int
    parity_case: str

    @property
    def big_d(self) -> int:
        """s^(d-1) + t^(d-1), the even-case denominator cofactor."""
        return self.s ** (self.d - 1) + self.t ** (self.d - 1)

    @property
    def bad_product(self) -> int:
        """The integer every fresh ramified prime must avoid dividing."""
        if self.parity_case == EVEN_CASE:
            return self.d * (self.d - 1) * self.s * self.t * self.big_d
        return 2 * self.d * (self.d - 2) * self.s * self.t

    def violated_relations(self) -> list[str]:
        """Structural invariants, each named; empty list means valid."""
        if self.d < 2:
            return ["d >= 2"]  # the relations below assume it
        out = []
        if not (1 <= self.m < self.d) or math.gcd(self.m, self.d) != 1:
            out.append("1 <= m < d with gcd(m, d) = 1")
        if self.t < 1 or math.gcd(self.s, self.t) != 1:
            out.append("x0 = s/t in lowest terms with t >= 1")
        elif self.x0 != Fraction(self.s, self.t):
            out.append("x0 == s/t")
        for q, name in ((self.p, "p"), (self.p1, "p1"), (self.p2, "p2")):
            if not is_prime(q):
                out.append(f"{name} prime")
        if self.parity_case == EVEN_CASE:
            if self.m != self.d - 1:
                out.append("m == d-1 (even case)")
            if self.t * self.big_d == 0 or self.b != Fraction(
                self.s**self.d, self.t * self.big_d
            ):
                out.append("b == s^d/(t*(s^(d-1)+t^(d-1)))")
            if math.gcd(self.s * (self.d - 1), self.d * self.t * self.big_d) != 1:
                out.append("gcd(s(d-1), dt(s^(d-1)+t^(d-1))) == 1")
            if self.p2 != self.p:
                out.append("p2 == p (even case)")
        elif self.parity_case in (ODD_CASE_1, ODD_CASE_2):
            if self.m != self.d - 2:
                out.append("m == d-2 (odd case)")
            if self.b != self.x0 * self.x0:
                out.append("b == x0^2")
            if math.gcd(2 * (self.d - 2) * self.s, self.d * self.t) != 1:
                out.append("gcd(2(d-2)s, dt) == 1")
            expected_p = self.p1 if self.parity_case == ODD_CASE_1 else self.p2
            if self.p != expected_p:
                out.append("p matches parity case")
        else:
            out.append("parity_case recognized")
        return out


def _require(condition: bool, relation: str):
    if not condition:
        raise ConstructError(f"construction postcondition failed: {relation}")


def find_aux_prime_even(d: int, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Smallest prime p with p = 1 (mod 4), p coprime to d(d-1), and
    1-d a square mod p."""
    if d < 2 or d % 2 != 0:
        raise ValueError("find_aux_prime_even: d must be even and >= 2")
    return next_prime_where(
        2,
        lambda q: (d * (d - 1)) % q != 0 and q % 4 == 1 and legendre(1 - d, q) == 1,
        cap,
    )


def find_aux_prime_odd(d: int, which: int, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Smallest prime p = 1 (mod 4), coprime to 2d(d-2), with the target
    (d or d-2) a non-residue mod p; rejects a perfect-square target."""
    if d < 3 or d % 2 == 0:
        raise ValueError("find_aux_prime_odd: d must be odd and >= 3")
    if which not in (d, d - 2):
        raise ValueError("find_aux_prime_odd: target must be d or d-2")
    if math.isqrt(which) ** 2 == which:
        raise ValueError(f"find_aux_prime_odd: target {which} is a perfect square")
    return next_prime_where(
        2,
        lambda q: (2 * d * (d - 2)) % q != 0 and q % 4 == 1 and legendre(which, q) == -1,
        cap,
    )


def build_params_even(d: int, cap: int = DEFAULT_SEARCH_CAP) -> IterInstance:
    """Even-degree construction; every tie broken smallest-first.

    s = 1 mod d(d-1), a non-residue mod p, with v_p1(s) = 1;
    t = 1 mod s(d-1) with t = p - s mod p^2, which plants v_p(D) = 1 in
    D = s^(d-1) + t^(d-1). All claimed valuations are re-verified before
    the instance is released.

    b = s^d / (t D) has at most d bits(s) bits in its numerator and
    bits(t) + (d-1) max(bits(s), bits(t)) + 1 in its denominator; a sum
    over ``poly.DEFAULT_BIT_BUDGET`` raises CapExceededError before
    s^(d-1) is formed.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError("build_params_even: d must be even and >= 2")
    p = find_aux_prime_even(d, cap)
    s0 = 2
    while legendre(s0, p) != -1:
        s0 += 1
    p1 = next_prime_where(2, lambda q: (d * (d - 1) * p) % q != 0, cap)
    s = crt([(1, d * (d - 1)), (s0, p), (p1, p1 * p1)])
    t = crt([(1, s * (d - 1)), ((p - s) % (p * p), p * p)])
    s_bits, t_bits = s.bit_length(), t.bit_length()
    b_bits = d * s_bits + t_bits + (d - 1) * max(s_bits, t_bits) + 1
    if b_bits > DEFAULT_BIT_BUDGET:
        raise CapExceededError(
            f"construct: b = s^d/(t*(s^(d-1)+t^(d-1))) at degree {d} may need {b_bits} "
            f"bits, over the bit budget {DEFAULT_BIT_BUDGET}"
        )
    big_d = s ** (d - 1) + t ** (d - 1)
    x0 = Fraction(s, t)
    b = Fraction(s**d, t * big_d)
    inst = IterInstance(
        d=d, m=d - 1, s=s, t=t, x0=x0, b=b, p=p, p1=p1, p2=p, parity_case=EVEN_CASE
    )
    _require(val(x0, p1) == 1, "v_p1(x0) == 1")
    _require(val(b, p1) == d, "v_p1(b) == d")
    _require(val(x0, p) == 0, "v_p2(x0) == 0")
    _require(val(b, p) == -1, "v_p2(b) == -1")
    _require(val(big_d, p) == 1, "v_p(s^(d-1)+t^(d-1)) == 1")
    _require(math.gcd(d - 1, big_d) == 1, "gcd(d-1, s^(d-1)+t^(d-1)) == 1")
    violated = inst.violated_relations()
    _require(not violated, "instance invariants: " + "; ".join(violated))
    return inst


def build_params_odd(d: int, cap: int = DEFAULT_SEARCH_CAP) -> IterInstance:
    """Odd-degree construction; case 1 (d a non-square) preferred.

    Case 1: s = p1 is the unit-square prime with d a non-residue;
    t = p2 is the smallest prime clear of 2d(d-2)s. Case 2 (d a perfect
    square, hence d-2 is not): mirrored, with d-2 the non-residue at
    p2 = t. Both cases set x0 = s/t and b = x0^2.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError("build_params_odd: d must be odd and >= 3")
    if math.isqrt(d) ** 2 != d:
        p1 = find_aux_prime_odd(d, d, cap)
        s = p1
        p2 = next_prime_where(2, lambda q: (2 * d * (d - 2) * s) % q != 0, cap)
        t = p2
        p = p1
        case = ODD_CASE_1
    else:
        p2 = find_aux_prime_odd(d, d - 2, cap)
        t = p2
        p1 = next_prime_where(2, lambda q: (2 * d * (d - 2) * t) % q != 0, cap)
        s = p1
        p = p2
        case = ODD_CASE_2
    x0 = Fraction(s, t)
    b = x0 * x0
    inst = IterInstance(
        d=d, m=d - 2, s=s, t=t, x0=x0, b=b, p=p, p1=p1, p2=p2, parity_case=case
    )
    _require(val(x0, p1) == 1, "v_p1(x0) == 1")
    _require(val(b, p1) == 2, "v_p1(b) == 2")
    _require(val(x0, p2) == -1, "v_p2(x0) == -1")
    _require(val(b, p2) == -2, "v_p2(b) == -2")
    violated = inst.violated_relations()
    _require(not violated, "instance invariants: " + "; ".join(violated))
    return inst


def build_params(d: int, cap: int = DEFAULT_SEARCH_CAP) -> IterInstance:
    """Dispatch on parity."""
    if d % 2 == 0:
        return build_params_even(d, cap)
    return build_params_odd(d, cap)


# ---------------------------------------------------------------------------
# JSON form (integers as decimal strings, rationals as "num/den")
# ---------------------------------------------------------------------------


def _frac_str(q: Fraction) -> str:
    num = decimal_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{decimal_str(q.denominator)}"


def instance_to_json_dict(inst: IterInstance) -> dict:
    return {
        "schema": "odoni-params-v1",
        "d": str(inst.d),
        "m": str(inst.m),
        "case": inst.parity_case,
        "s": str(inst.s),
        "t": str(inst.t),
        "x0": _frac_str(inst.x0),
        "b": _frac_str(inst.b),
        "p": str(inst.p),
        "p1": str(inst.p1),
        "p2": str(inst.p2),
    }


def instance_from_json_dict(data: dict) -> IterInstance:
    """Parse without validating the mathematical invariants.

    Structural/arithmetical validation is the certifier's first job, so
    a tampered params file still parses and then fails with the violated
    relation named rather than a parse error. x0 and b are read by
    ``arith._rationals``; a non-finite number anywhere is malformed.
    """
    try:
        return IterInstance(
            d=int(data["d"]),
            m=int(data["m"]),
            s=int(data["s"]),
            t=int(data["t"]),
            x0=_rationals([data["x0"]], "x0")[0],
            b=_rationals([data["b"]], "b")[0],
            p=int(data["p"]),
            p1=int(data["p1"]),
            p2=int(data["p2"]),
            parity_case=str(data["case"]),
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed params JSON: {exc}") from exc

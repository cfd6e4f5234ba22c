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
    RelationError,
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
        """s^(d-1) + t^(d-1), the even-case denominator cofactor
        (``even_denominator``: bounded before it is formed)."""
        return even_denominator(self.d, self.s, self.t)

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


def even_denominator(d: int, s: int, t: int) -> int:
    """D = s^(d-1) + t^(d-1), the denominator cofactor of the even case's
    b = s^d / (t D).

    b has at most d bits(s) bits in its numerator and
    bits(t) + (d-1) max(bits(s), bits(t)) + 1 in its denominator; a sum
    over ``poly.DEFAULT_BIT_BUDGET`` raises CapExceededError before
    s^(d-1) is formed. Each value the even case forms from d, s and t
    (D, s^d, b and the bad product) has about that many bits at most,
    so a params file cannot make the structural check build a huge one.
    """
    s_bits, t_bits = s.bit_length(), t.bit_length()
    b_bits = d * s_bits + t_bits + (d - 1) * max(s_bits, t_bits) + 1
    if b_bits > DEFAULT_BIT_BUDGET:
        raise CapExceededError(
            f"even case: b = s^d/(t*(s^(d-1)+t^(d-1))) at degree {d} may need {b_bits} "
            f"bits, over the bit budget {DEFAULT_BIT_BUDGET}"
        )
    return s ** (d - 1) + t ** (d - 1)


def _require(condition: bool, relation: str):
    if not condition:
        raise RelationError("construct.postcondition", relation)


def build_params_even(d: int, cap: int = DEFAULT_SEARCH_CAP) -> IterInstance:
    """Even-degree construction; every tie broken smallest-first.

    s = 1 mod d(d-1), a non-residue mod p, with v_p1(s) = 1;
    t = 1 mod s(d-1) with t = p - s mod p^2, which plants v_p(D) = 1 in
    D = s^(d-1) + t^(d-1). All claimed valuations are re-verified before
    the instance is released. A b bounded over the bit budget raises
    CapExceededError before D is formed (``even_denominator``).
    """
    if d < 2 or d % 2 != 0:
        raise ValueError("build_params_even: d must be even and >= 2")
    # the unit-square prime: p = 1 (mod 4), clear of d(d-1), 1-d a square
    p = next_prime_where(
        2,
        lambda q: (d * (d - 1)) % q != 0 and q % 4 == 1 and legendre(1 - d, q) == 1,
        cap,
    )
    s0 = 2
    while legendre(s0, p) != -1:
        s0 += 1
    p1 = next_prime_where(2, lambda q: (d * (d - 1) * p) % q != 0, cap)
    s = crt([(1, d * (d - 1)), (s0, p), (p1, p1 * p1)])
    t = crt([(1, s * (d - 1)), ((p - s) % (p * p), p * p)])
    big_d = even_denominator(d, s, t)
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

    The unit-square prime p is the smallest p = 1 (mod 4) clear of
    2d(d-2) with the target a non-residue: d in case 1, d-2 in case 2
    (d a perfect square, hence d-2 is not). The other witness prime is
    the smallest prime clear of 2d(d-2)p. Case 1 sets s = p1 = p and
    t = p2 = the other; case 2 mirrors it, t = p2 = p and s = p1 = the
    other. Both cases set x0 = s/t and b = x0^2.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError("build_params_odd: d must be odd and >= 3")
    case_1 = math.isqrt(d) ** 2 != d
    target = d if case_1 else d - 2
    p = next_prime_where(
        2,
        lambda q: (2 * d * (d - 2)) % q != 0 and q % 4 == 1 and legendre(target, q) == -1,
        cap,
    )
    other = next_prime_where(2, lambda q: (2 * d * (d - 2) * p) % q != 0, cap)
    s, t = p1, p2 = (p, other) if case_1 else (other, p)
    x0 = Fraction(s, t)
    b = x0 * x0
    inst = IterInstance(
        d=d, m=d - 2, s=s, t=t, x0=x0, b=b, p=p, p1=p1, p2=p2,
        parity_case=ODD_CASE_1 if case_1 else ODD_CASE_2,
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

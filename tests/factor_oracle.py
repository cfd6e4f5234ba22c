"""Complete factorization over GF(p) and the Frobenius factor tree: the
independent oracle that the sampler's distinct-degree cycle types are
checked against.

The factorization pipeline is the classical one: strip the leading
unit, split off p-th-power content, take the squarefree part through
gcd with the derivative, split by distinct degree with iterated
Frobenius powers, and finish with randomized equal-degree
(Cantor-Zassenhaus) splitting. The equal-degree stage draws from a
fixed-seed generator created per call, and the result is sorted, so
identical inputs give identical outputs.

p = 2 is unsupported (the equal-degree exponent (p^k - 1)/2 needs odd p).
Polynomials here are ``PolyModP`` objects; the sampler itself works on
plain integer lists (``odoni.polymod``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from odoni.arith import is_prime
from odoni.frobenius import _bad_reduction_product
from poly_oracle import Poly, compose, f_poly


class PolyModP:
    """Immutable dense polynomial over GF(p), ascending coefficients."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs: Iterable[int], p: int):
        reduced = [c % p for c in coeffs]
        while len(reduced) > 1 and reduced[-1] == 0:
            reduced.pop()
        if not reduced:
            reduced = [0]
        object.__setattr__(self, "coeffs", tuple(reduced))
        object.__setattr__(self, "p", p)

    def __setattr__(self, *_):
        raise AttributeError("PolyModP is immutable")

    @classmethod
    def from_rational_coeffs(cls, coeffs: Iterable[int | Fraction], p: int) -> "PolyModP":
        """Reduce rational coefficients mod p; denominators must be units."""
        out = []
        for c in coeffs:
            c = Fraction(c)
            if c.denominator % p == 0:
                raise ValueError(f"coefficient denominator divisible by {p}")
            out.append(c.numerator * pow(c.denominator, -1, p) % p)
        return cls(out, p)

    @property
    def degree(self) -> int:
        if self.is_zero():
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    @property
    def lc(self) -> int:
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __eq__(self, other):
        return (
            isinstance(other, PolyModP)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.p))

    def __repr__(self):
        return f"PolyModP({list(self.coeffs)}, p={self.p})"

    def _check_field(self, other: "PolyModP"):
        if self.p != other.p:
            raise ValueError("mixed moduli")

    def __add__(self, other: "PolyModP") -> "PolyModP":
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return PolyModP(out, self.p)

    def __sub__(self, other: "PolyModP") -> "PolyModP":
        self._check_field(other)
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * max(0, len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = (out[i] - c) % self.p
        return PolyModP(out, self.p)

    def __mul__(self, other) -> "PolyModP":
        if isinstance(other, int):
            return PolyModP([c * other for c in self.coeffs], self.p)
        self._check_field(other)
        if self.is_zero() or other.is_zero():
            return PolyModP([0], self.p)
        p = self.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    if bj:
                        out[i + j] = (out[i + j] + ai * bj) % p
        return PolyModP(out, p)

    __rmul__ = __mul__

    def __divmod__(self, other: "PolyModP") -> tuple["PolyModP", "PolyModP"]:
        self._check_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        a = list(self.coeffs)
        db = other.degree
        inv = pow(other.lc, -1, p)
        q = [0] * max(1, len(a) - db)
        while len(a) - 1 >= db and not (len(a) == 1 and a[0] == 0):
            da = len(a) - 1
            c = a[-1] * inv % p
            q[da - db] = c
            for i in range(db + 1):
                a[da - db + i] = (a[da - db + i] - c * other.coeffs[i]) % p
            while len(a) > 1 and a[-1] == 0:
                a.pop()
        return PolyModP(q, p), PolyModP(a, p)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "PolyModP":
        if self.is_zero() or self.is_monic():
            return self
        inv = pow(self.lc, -1, self.p)
        return self * inv

    def gcd(self, other: "PolyModP") -> "PolyModP":
        """Monic gcd."""
        self._check_field(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def pow_mod(self, e: int, modulus: "PolyModP") -> "PolyModP":
        """self^e reduced mod (modulus, p) by square and multiply."""
        result = PolyModP([1], self.p)
        base = self % modulus
        while e:
            if e & 1:
                result = result * base % modulus
            base = base * base % modulus
            e >>= 1
        return result


def derivative(f: PolyModP) -> PolyModP:
    return PolyModP([i * c for i, c in enumerate(f.coeffs)][1:] or [0], f.p)


def pth_root(f: PolyModP) -> PolyModP:
    """p-th root of a polynomial with zero derivative (f = g(x^p) = g^p)."""
    if not derivative(f).is_zero():
        raise ValueError("pth_root: derivative is nonzero")
    return PolyModP(list(f.coeffs[:: f.p]), f.p)


def compose_mod(g: PolyModP, inner: PolyModP, modulus: PolyModP) -> PolyModP:
    """g(inner) reduced mod (modulus, p), Horner in inner."""
    acc = PolyModP([g.coeffs[-1]], g.p)
    for c in reversed(g.coeffs[:-1]):
        acc = (acc * inner + PolyModP([c], g.p)) % modulus
    return acc


def _x(p: int) -> PolyModP:
    return PolyModP([0, 1], p)


def _equal_degree_split(f: PolyModP, k: int, rng: random.Random) -> list[PolyModP]:
    """Cantor-Zassenhaus: f monic squarefree, all factors of degree k."""
    if f.degree == k:
        return [f]
    p = f.p
    exponent = (p**k - 1) // 2
    while True:
        r = PolyModP([rng.randrange(p) for _ in range(f.degree)] + [1], p)
        g = f.gcd(r)
        if 0 < g.degree < f.degree:
            break
        h = r.pow_mod(exponent, f) - PolyModP([1], p)
        g = f.gcd(h)
        if 0 < g.degree < f.degree:
            break
    return _equal_degree_split(g, k, rng) + _equal_degree_split(f // g, k, rng)


def _factor_squarefree(f: PolyModP, rng: random.Random) -> list[PolyModP]:
    """Distinct-degree split then equal-degree split; f monic squarefree."""
    p = f.p
    out: list[PolyModP] = []
    v = f
    frob = _x(p)  # running x^(p^i) mod v
    i = 0
    while v.degree > 0:
        i += 1
        if 2 * i > v.degree:
            out.append(v)
            break
        frob = frob.pow_mod(p, v)
        g = v.gcd(frob - _x(p))
        if g.degree > 0:
            out.extend(_equal_degree_split(g, i, rng))
            v = v // g
            if v.degree > 0:
                frob = frob % v
    return out


def factor_mod_p(f: PolyModP) -> list[tuple[PolyModP, int]]:
    """Complete factorization of f over GF(p) for odd prime p.

    Returns (monic irreducible, multiplicity) pairs in a canonical order
    (degree, then coefficient tuple); the product over all pairs times
    the leading coefficient reproduces f.
    """
    p = f.p
    if p == 2:
        raise ValueError("factor_mod_p: p = 2 is unsupported")
    if not is_prime(p):
        raise ValueError(f"factor_mod_p: {p} is not prime")
    if f.degree < 1:
        raise ValueError("factor_mod_p: polynomial must be non-constant")
    rng = random.Random(0)
    fm = f.monic()
    distinct: set[PolyModP] = set()
    t = fm
    while t.degree > 0:
        dt = derivative(t)
        if dt.is_zero():
            t = pth_root(t)
            continue
        s = t // t.gcd(dt)  # product of the distinct irreducible factors of t
        for q in _factor_squarefree(s, rng):
            distinct.add(q)
        for q in distinct:
            while True:
                quo, rem = divmod(t, q)
                if rem.is_zero() and t.degree >= q.degree:
                    t = quo
                else:
                    break
    result = []
    for q in sorted(distinct, key=lambda q: (q.degree, q.coeffs)):
        e = 0
        r = fm
        while True:
            quo, rem = divmod(r, q)
            if rem.is_zero() and r.degree >= q.degree:
                e += 1
                r = quo
            else:
                break
        result.append((q, e))
    return result


def factor_cycle_type(f: PolyModP) -> tuple[int, ...]:
    """Factor degrees of f with multiplicity, descending."""
    degrees = [q.degree for q, e in factor_mod_p(f) for _ in range(e)]
    return tuple(sorted(degrees, reverse=True))


# ---------------------------------------------------------------------------
# the Frobenius factor tree
# ---------------------------------------------------------------------------


class BadReductionError(ValueError):
    """The prime is unusable for this instance (skippable, not fatal)."""


@dataclass(frozen=True)
class FactorNode:
    level: int
    index: int
    degree: int
    parent: Optional[int]  # index into the previous level, None at the root
    poly: PolyModP


@dataclass(frozen=True)
class FactorTree:
    p: int
    d: int
    n: int
    levels: tuple[tuple[FactorNode, ...], ...]  # levels[k] = level-k nodes

    def level_degrees(self, k: int) -> tuple[int, ...]:
        return tuple(sorted((node.degree for node in self.levels[k]), reverse=True))

    def leaf_cycle_type(self) -> tuple[int, ...]:
        return self.level_degrees(self.n)


def factor_tree(inst, n: int, p: int) -> FactorTree:
    """Factor f^k - x0 mod p for k <= n and attach each factor to its
    image under f one level down.

    Requires good reduction (p odd, p away from the denominators of b
    and x0, and away from disc(f^k - x0) for k <= n); a bad prime raises
    BadReductionError. A level-k factor h is the child of the unique
    level-(k-1) factor g with g(f(x)) = 0 mod (h(x), p).
    """
    if _bad_reduction_product(inst, n) % p == 0:
        raise BadReductionError(f"{p} is a bad-reduction prime for this instance")
    d = inst.d
    f_mod = PolyModP.from_rational_coeffs(f_poly(inst).coeffs, p)
    x0_mod = inst.x0.numerator * pow(inst.x0.denominator, -1, p) % p
    root = FactorNode(level=0, index=0, degree=1, parent=None, poly=PolyModP([-x0_mod, 1], p))
    levels: list[tuple[FactorNode, ...]] = [(root,)]
    g_pol = Poly.x()
    f_pol = f_poly(inst)
    for k in range(1, n + 1):
        g_pol = compose(f_pol, g_pol)
        target = PolyModP.from_rational_coeffs((g_pol - inst.x0).coeffs, p)
        factors = factor_mod_p(target)
        if any(e != 1 for _, e in factors):
            raise BadReductionError(f"{p}: repeated factor despite disc check")
        nodes = []
        for idx, (h, _) in enumerate(factors):
            parents = []
            f_red = f_mod % h
            for j, gnode in enumerate(levels[k - 1]):
                if compose_mod(gnode.poly, f_red, h).is_zero():
                    parents.append(j)
            if len(parents) != 1:
                raise RuntimeError(
                    f"factor at level {k} has {len(parents)} parents (p={p})"
                )
            nodes.append(
                FactorNode(level=k, index=idx, degree=h.degree, parent=parents[0], poly=h)
            )
        if sum(node.degree for node in nodes) != d**k:
            raise RuntimeError(f"level {k} degrees do not sum to d^{k} (p={p})")
        for j, gnode in enumerate(levels[k - 1]):
            child_total = sum(node.degree for node in nodes if node.parent == j)
            if child_total != d * gnode.degree:
                raise RuntimeError(
                    f"children of level-{k - 1} factor {j} sum to {child_total}, "
                    f"expected {d * gnode.degree} (p={p})"
                )
        levels.append(tuple(nodes))
    return FactorTree(p=p, d=d, n=n, levels=tuple(levels))

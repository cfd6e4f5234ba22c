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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from odoni.arith import is_prime
from odoni.frobenius import _good_reduction_discs, _is_good_prime
from odoni.poly import Poly, compose
from odoni.polymod import PolyModP


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
    discs = _good_reduction_discs(inst, n)
    if not _is_good_prime(inst, p, discs):
        raise BadReductionError(f"{p} is a bad-reduction prime for this instance")
    d = inst.d
    f_mod = PolyModP.from_rational_coeffs(inst.f_poly().coeffs, p)
    x0_mod = inst.x0.numerator * pow(inst.x0.denominator, -1, p) % p
    root = FactorNode(level=0, index=0, degree=1, parent=None, poly=PolyModP([-x0_mod, 1], p))
    levels: list[tuple[FactorNode, ...]] = [(root,)]
    g_pol = Poly.x()
    f_pol = inst.f_poly()
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

"""Permutations, subgroup closure, the S_d generation verdict, and the
leaf cycle-type law of the full d-ary tree group.

Group elements are small enough here (d <= 8, closures of order at most
8! = 40320) that breadth-first closure with a hash set beats anything
asymptotically clever. The automorphism group of the complete d-ary
tree of depth n is the n-fold iterated wreath product of S_d, of order
(d!)^((d^n - 1)/(d - 1)); its leaf cycle-type law comes from the cycle
index, without listing the group. Listing it is the test suite's
oracle for that law.

Products of permutations are formed only inside the closure, on image
tuples, acting right-to-left: (g * h)[x] = g[h[x]].
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

MAX_CLOSURE_DEGREE = 8
# largest tree-group order whose law the Frobenius sampler and the pipeline
# compare with, the reach of the enumeration oracle in the tests
MAX_ENUMERATION = 10**5


class ClosureCapError(RuntimeError):
    """Subgroup closure exceeded its element cap."""


class Perm:
    """Permutation of {0..d-1} as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *_):
        raise AttributeError("Perm is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm({list(self.images)})"


def _closure_images(generators: Sequence[Perm], cap: int | None = None) -> set[tuple[int, ...]]:
    """Subgroup generated by the given permutations, as image tuples
    ((g * h)[x] = g[h[x]]), by BFS with dedup.

    Degree is capped at 8 and the element count at ``cap`` (default d!),
    erroring loudly past either.
    """
    if not generators:
        raise ValueError("closure: need at least one generator")
    d = generators[0].degree
    if any(g.degree != d for g in generators):
        raise ValueError("closure: mixed degrees")
    if d > MAX_CLOSURE_DEGREE:
        raise ValueError(f"closure: degree {d} exceeds {MAX_CLOSURE_DEGREE}")
    if cap is None:
        cap = math.factorial(d)
    gens = [g.images for g in generators]
    seen: set[tuple[int, ...]] = {tuple(range(d)), *gens}
    if len(seen) > cap:
        raise ClosureCapError(f"closure exceeded cap {cap}")
    frontier = list(seen)
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                prod = tuple(map(g.__getitem__, h))
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        raise ClosureCapError(f"closure exceeded cap {cap}")
                    new.append(prod)
        frontier = new
    return seen


def orbit(generators: Sequence[Perm], point: int) -> frozenset[int]:
    seen = {point}
    frontier = [point]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = g(x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def is_transitive(generators: Sequence[Perm]) -> bool:
    if not generators:
        return False
    return len(orbit(generators, 0)) == generators[0].degree


@dataclass(frozen=True)
class GenSdVerdict:
    """Outcome of the S_d-generation check.

    ``hypotheses``: named booleans: the generated group contains a
    transposition, acts transitively, the second family lies inside it,
    fixes the tail {m+1..d} pointwise, and acts transitively on the head
    {1..m}. ``conclusion_holds``: the generated group is all of S_d,
    decided independently by enumerating the closure.
    """

    d: int
    m: int
    hypotheses: dict
    hypotheses_hold: bool
    conclusion_holds: bool
    group_order: int


def gen_sd_check(
    d: int, m: int, g_gens: Sequence[Perm], h_gens: Sequence[Perm]
) -> GenSdVerdict:
    """Check the S_d-generation criterion for (d, m).

    Requires d >= 3, d/2 < m < d, gcd(m, d) = 1. The verdict reports
    both whether the hypotheses hold and whether the closure actually is
    S_d, so the criterion itself is testable, not assumed.
    """
    if d < 3:
        raise ValueError("gen_sd_check: need d >= 3")
    if not (d / 2 < m < d):
        raise ValueError("gen_sd_check: need d/2 < m < d")
    if math.gcd(m, d) != 1:
        raise ValueError("gen_sd_check: need gcd(m, d) = 1")
    g_group = _closure_images(list(g_gens))
    identity = range(d)
    has_transposition = any(sum(map(int.__ne__, g, identity)) == 2 for g in g_group)
    transitive = is_transitive(list(g_gens))
    h_in_g = all(h.images in g_group for h in h_gens)
    tail = range(m, d)  # 0-based tail {m+1..d} in 1-based terms
    h_fixes_tail = all(all(h(i) == i for i in tail) for h in h_gens)
    head_orbit = orbit(list(h_gens), 0)
    h_transitive_head = len(head_orbit) == m and all(x < m for x in head_orbit)
    hypotheses = {
        "g_contains_transposition": has_transposition,
        "g_transitive": transitive,
        "h_subset_of_g": h_in_g,
        "h_fixes_tail_pointwise": h_fixes_tail,
        "h_transitive_on_head": h_transitive_head,
    }
    return GenSdVerdict(
        d=d,
        m=m,
        hypotheses=hypotheses,
        hypotheses_hold=all(hypotheses.values()),
        conclusion_holds=len(g_group) == math.factorial(d),
        group_order=len(g_group),
    )


# ---------------------------------------------------------------------------
# the tree group and its leaf cycle-type law
# ---------------------------------------------------------------------------


def wreath_order(d: int, n: int) -> int:
    """(d!)^((d^n - 1)/(d - 1)), the number of depth-n tree automorphisms."""
    if d < 2 or n < 0:
        raise ValueError("wreath_order: need d >= 2, n >= 0")
    return math.factorial(d) ** ((d**n - 1) // (d - 1))


def wreath_order_exceeds(d: int, n: int, cap: int) -> bool:
    """wreath_order(d, n) > cap, decided without forming the order.

    The exponent e = 1 + d + ... + d^(n-1) is grown one level at a time
    and stops once it passes bits(cap): then (d!)^e >= 2^e > cap. Below
    that, d! is built only until it passes cap, so the last power is
    small.
    """
    if d < 2 or n < 0:
        raise ValueError("wreath_order_exceeds: need d >= 2, n >= 0")
    e, power = 0, 1
    for _ in range(n):
        e += power
        if e > cap.bit_length():
            return True
        power *= d
    fact = 1
    for j in range(2, d + 1):
        fact *= j
        if fact > cap:
            break
    return fact**e > cap


def _sd_cycle_index(d: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """Z(S_d): each partition of d, descending, with 1/z, the share of
    S_d with that cycle type."""
    out = []
    stack: list[tuple[tuple[int, ...], int]] = [((), d)]
    while stack:
        parts, rest = stack.pop()
        if rest == 0:
            z = math.prod(k**c * math.factorial(c) for k, c in Counter(parts).items())
            out.append((parts, Fraction(1, z)))
            continue
        for k in range(min(rest, parts[-1] if parts else rest), 0, -1):
            stack.append((parts + (k,), rest - k))
    return out


def leaf_type_distribution(d: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Exact distribution of leaf cycle types over the full tree group,
    keyed by descending cycle types in sorted order.

    The group W_n is W_(n-1) wr S_d: one W_(n-1) per subtree of the
    root, permuted by the root label. Its law is the cycle-index
    plethysm Z(S_d)[Z(W_(n-1))] (Polya, 1937): a k-cycle of the root
    label carries k subtrees round one cycle, and the product of the k
    W_(n-1) labels along it is uniform in W_(n-1), so the cycle
    contributes a W_(n-1) type with every length times k.
    Frequencies are Fractions summing to 1; this is the reference law
    for Frobenius cycle-type sampling. Each call returns a fresh dict,
    so a caller may edit it without touching the memo.
    """
    if d < 2 or n < 0:
        raise ValueError("leaf_type_distribution: need d >= 2, n >= 0")
    return dict(_leaf_type_law(d, n))


@lru_cache(maxsize=None)
def _leaf_type_law(d: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """The memo behind ``leaf_type_distribution``; never handed out."""
    if n == 0:
        return {(1,): Fraction(1)}
    lower = _leaf_type_law(d, n - 1)
    law: dict[tuple[int, ...], Fraction] = {}
    for parts, share in _sd_cycle_index(d):
        terms = {(): share}
        for k in parts:
            step: dict[tuple[int, ...], Fraction] = {}
            for t, a in terms.items():
                for s, b in lower.items():
                    key = tuple(sorted(t + tuple(k * j for j in s), reverse=True))
                    step[key] = step.get(key, 0) + a * b
            terms = step
        for t, a in terms.items():
            law[t] = law.get(t, 0) + a
    return dict(sorted(law.items()))

"""Permutations, subgroup closure, and d-ary rooted-tree automorphisms.

Group elements are small enough here (d <= 8, closures of order at most
8! = 40320) that breadth-first closure with a hash set beats anything
asymptotically clever. Tree automorphisms are stored as portraits: one
permutation label per internal node of the complete d-ary tree of depth
n; the node set of every automorphism of such a tree is the full wreath
tower, whose order is (d!)^((d^n - 1)/(d - 1)).

Conventions, pinned by tests: composition acts right-to-left, i.e.
(a * b)(x) = a(b(x)); tree nodes
are addressed by tuples of 0-based child indices, and a leaf's index is
its address read as a base-d numeral (most significant digit first).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

MAX_CLOSURE_DEGREE = 8
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

    @classmethod
    def identity(cls, d: int) -> "Perm":
        return cls(range(d))

    @classmethod
    def from_cycles(cls, d: int, *cycles: Sequence[int]) -> "Perm":
        """Build from disjoint cycles in 1-based notation, e.g. (1, 2, 3)."""
        images = list(range(d))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)((cycle[0],))):
                if not 1 <= a <= d:
                    raise ValueError(f"cycle point {a} outside 1..{d}")
                images[a - 1] = b - 1
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        # (a * b)(x) = a(b(x)): b acts first
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Perm(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Perm":
        out = [0] * self.degree
        for i, j in enumerate(self.images):
            out[j] = i
        return Perm(out)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycle_type(self) -> tuple[int, ...]:
        """Partition of the degree, sorted descending."""
        seen = [False] * self.degree
        lengths = []
        for i in range(self.degree):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    def is_transposition(self) -> bool:
        return self.cycle_type() == (2,) + (1,) * (self.degree - 2)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm({list(self.images)})"


def closure(generators: Sequence[Perm], cap: int | None = None) -> frozenset[Perm]:
    """Subgroup generated by the given permutations, by BFS with dedup.

    Degree is capped at 8 and the element count at ``cap`` (default d!),
    erroring loudly past either.
    """
    return frozenset(Perm(images) for images in _closure_images(generators, cap))


def _closure_images(generators: Sequence[Perm], cap: int | None = None) -> set[tuple[int, ...]]:
    """The closure as raw image tuples, (g * h)[x] = g[h[x]]."""
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
# tree automorphisms
# ---------------------------------------------------------------------------


def internal_nodes(d: int, n: int) -> list[tuple[int, ...]]:
    """Addresses of internal nodes of the depth-n complete d-ary tree:
    all digit tuples of length < n, in (length, lexicographic) order."""
    out: list[tuple[int, ...]] = []
    for length in range(n):
        out.extend(itertools.product(range(d), repeat=length))
    return out


def wreath_order(d: int, n: int) -> int:
    """(d!)^((d^n - 1)/(d - 1)), the number of depth-n tree automorphisms."""
    if d < 2 or n < 0:
        raise ValueError("wreath_order: need d >= 2, n >= 0")
    return math.factorial(d) ** ((d**n - 1) // (d - 1))


class TreeAutomorphism:
    """Automorphism of the complete d-ary depth-n tree, as a portrait.

    The portrait maps every internal node address to a Perm of its
    children. The image of a node (e_1, ..., e_k) is computed by
    applying, along the original path, the label at each prefix:
    a(v + (e,)) = a(v) + (label_v(e),).
    """

    __slots__ = ("d", "n", "portrait")

    def __init__(self, d: int, n: int, portrait: dict[tuple[int, ...], Perm]):
        expected = internal_nodes(d, n)
        if set(portrait) != set(expected):
            raise ValueError("portrait must label exactly the internal nodes")
        if any(p.degree != d for p in portrait.values()):
            raise ValueError("portrait labels must permute d children")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "portrait", dict(portrait))

    def __setattr__(self, *_):
        raise AttributeError("TreeAutomorphism is immutable")

    @classmethod
    def identity(cls, d: int, n: int) -> "TreeAutomorphism":
        e = Perm.identity(d)
        return cls(d, n, {v: e for v in internal_nodes(d, n)})

    def node_image(self, address: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        prefix: tuple[int, ...] = ()
        for e in address:
            out.append(self.portrait[prefix](e))
            prefix = prefix + (e,)
        return tuple(out)

    def leaf_action(self) -> Perm:
        """Induced permutation of the d^n leaves (base-d address order)."""
        d, n = self.d, self.n
        images = []
        for leaf in itertools.product(range(d), repeat=n):
            img = self.node_image(leaf)
            idx = 0
            for e in img:
                idx = idx * d + e
            images.append(idx)
        return Perm(images)

    def leaf_cycle_type(self) -> tuple[int, ...]:
        return self.leaf_action().cycle_type()

    def __eq__(self, other):
        return (
            isinstance(other, TreeAutomorphism)
            and self.d == other.d
            and self.n == other.n
            and self.portrait == other.portrait
        )

    def __hash__(self):
        return hash((self.d, self.n, tuple(sorted(self.portrait.items()))))


def enumerate_wreath(d: int, n: int) -> list[TreeAutomorphism]:
    """Every automorphism exactly once; guarded by the 1e5 order cap."""
    order = wreath_order(d, n)
    if order > MAX_ENUMERATION:
        raise ValueError(f"enumerate_wreath: order {order} exceeds {MAX_ENUMERATION}")
    nodes = internal_nodes(d, n)
    all_perms = [Perm(images) for images in itertools.permutations(range(d))]
    out = []
    for labels in itertools.product(all_perms, repeat=len(nodes)):
        out.append(TreeAutomorphism(d, n, dict(zip(nodes, labels))))
    return out


@lru_cache(maxsize=None)
def leaf_type_distribution(d: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Exact distribution of leaf cycle types over the full tree group.

    Frequencies are Fractions summing to 1; this is the reference law
    for Frobenius cycle-type sampling.
    """
    counts: dict[tuple[int, ...], int] = {}
    total = 0
    for a in enumerate_wreath(d, n):
        t = a.leaf_cycle_type()
        counts[t] = counts.get(t, 0) + 1
        total += 1
    return {t: Fraction(c, total) for t, c in sorted(counts.items())}

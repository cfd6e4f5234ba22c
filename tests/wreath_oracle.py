"""Tree automorphisms as portraits and the exhaustive enumeration of the
full tree group: the independent oracle that the cycle-index leaf-type
law is checked against.

A portrait is one permutation label per internal node of the complete
d-ary tree of depth n. Tree nodes are addressed by tuples of 0-based
child indices, and a leaf's index is its address read as a base-d
numeral (most significant digit first). Enumeration is capped at group
order 1e5, the cap the Frobenius sampler keeps.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from odoni.permgroup import MAX_ENUMERATION, Perm
from perm_helpers import cycle_type, identity as perm_identity


def wreath_order(d: int, n: int) -> int:
    """(d!)^((d^n - 1)/(d - 1)), the number of depth-n tree automorphisms."""
    if d < 2 or n < 0:
        raise ValueError("wreath_order: need d >= 2, n >= 0")
    return math.factorial(d) ** ((d**n - 1) // (d - 1))


def internal_nodes(d: int, n: int) -> list[tuple[int, ...]]:
    """Addresses of internal nodes of the depth-n complete d-ary tree:
    all digit tuples of length < n, in (length, lexicographic) order."""
    out: list[tuple[int, ...]] = []
    for length in range(n):
        out.extend(itertools.product(range(d), repeat=length))
    return out


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
        e = perm_identity(d)
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
        return cycle_type(self.leaf_action())

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
def enumerated_law(d: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Leaf cycle-type law by counting over every automorphism, keyed in
    sorted order."""
    counts: dict[tuple[int, ...], int] = {}
    total = 0
    for a in enumerate_wreath(d, n):
        t = a.leaf_cycle_type()
        counts[t] = counts.get(t, 0) + 1
        total += 1
    return {t: Fraction(c, total) for t, c in sorted(counts.items())}


# every shape (d, n >= 1) the oracle reaches: group order at most 1e5
ENUMERABLE_SHAPES = [
    (d, n)
    for d in range(2, 9)
    for n in range(1, 5)
    if wreath_order(d, n) <= MAX_ENUMERATION
]

"""Permutation operations that only the test suite uses.

``odoni.permgroup.Perm`` keeps what the program needs (its images, its
degree, and applying it to a point); the composition, inverse, cycle
type and the 1-based cycle constructor that the tests and the wreath
oracle build on live here, and so does the subgroup closure by BFS, the
oracle for the stabilizer chain behind ``gen_sd_check``.

Convention, pinned by tests: composition acts right-to-left, i.e.
compose(a, b)(x) = a(b(x)).
"""

from __future__ import annotations

import math
from typing import Sequence

from odoni.permgroup import Perm

# the closure lists the group, so it stops at S_8's 40320 elements
CLOSURE_DEGREE_CAP = 8


class ClosureCapError(RuntimeError):
    """Subgroup closure exceeded its element cap."""


def identity(d: int) -> Perm:
    return Perm(range(d))


def from_cycles(d: int, *cycles: Sequence[int]) -> Perm:
    """Build from disjoint cycles in 1-based notation, e.g. (1, 2, 3)."""
    images = list(range(d))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + type(cycle)((cycle[0],))):
            if not 1 <= a <= d:
                raise ValueError(f"cycle point {a} outside 1..{d}")
            images[a - 1] = b - 1
    return Perm(images)


def compose(a: Perm, b: Perm) -> Perm:
    """a * b: b acts first."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    return Perm(tuple(a.images[j] for j in b.images))


def inverse(a: Perm) -> Perm:
    out = [0] * a.degree
    for i, j in enumerate(a.images):
        out[j] = i
    return Perm(out)


def cycle_type(a: Perm) -> tuple[int, ...]:
    """Partition of the degree, sorted descending."""
    seen = [False] * a.degree
    lengths = []
    for i in range(a.degree):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a.images[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def is_transposition(a: Perm) -> bool:
    return cycle_type(a) == (2,) + (1,) * (a.degree - 2)


def _closure_images(generators: Sequence[Perm], cap: int | None = None) -> set[tuple[int, ...]]:
    """Subgroup generated by the given permutations, as image tuples
    ((g * h)[x] = g[h[x]]), by BFS with dedup.

    Degree is capped at CLOSURE_DEGREE_CAP and the element count at
    ``cap`` (default d!), erroring loudly past either.
    """
    if not generators:
        raise ValueError("closure: need at least one generator")
    d = generators[0].degree
    if any(g.degree != d for g in generators):
        raise ValueError("closure: mixed degrees")
    if d > CLOSURE_DEGREE_CAP:
        raise ValueError(f"closure: degree {d} exceeds {CLOSURE_DEGREE_CAP}")
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
